"""End-to-end command-line flows through main(argv)."""
import argparse
import json
import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest

from qpke import analysis, qmat
from qpke.cli import _emit_reports, _parse_range, main


def run_keygen(tmp_path, name, *extra):
    outdir = tmp_path / name
    rc = main(["keygen", "--scheme", "a", "--n", "3", "--seed", "7",
               "--out", str(outdir), *extra])
    assert rc == 0
    return outdir


def test_parse_range():
    assert _parse_range("4") == [4]
    assert _parse_range("1..4") == [1, 2, 3, 4]
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_range("8..3")


def test_keygen_writes_expected_files(tmp_path, capsys):
    outdir = run_keygen(tmp_path, "keys", "--count", "3")
    files = sorted(p.name for p in outdir.iterdir())
    assert files == ["private.json", "pub_0000.json", "pub_0001.json", "pub_0002.json"]
    line = capsys.readouterr().out
    assert "scheme=a n=3 m=6 count=3 seed=7" in line
    assert "private_fingerprint=" in line
    priv = json.loads((outdir / "private.json").read_text())
    assert priv["scheme"] == "a" and priv["n"] == 3


def test_keygen_is_deterministic(tmp_path):
    a = run_keygen(tmp_path, "a", "--count", "2")
    b = run_keygen(tmp_path, "b", "--count", "2")
    for name in ("private.json", "pub_0000.json", "pub_0001.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_keygen_rejects_narrow_seed_width(tmp_path, capsys):
    assert main(["keygen", "--scheme", "a", "--n", "4", "--m", "4",
                 "--out", str(tmp_path / "x")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "qpke keygen: m must exceed n, got m=4, n=4\n"


def test_encrypt_decrypt_file_flow(tmp_path, capsys):
    outdir = run_keygen(tmp_path, "keys")
    ct_path = tmp_path / "ct.json"
    rc = main(["encrypt", "--pub", str(outdir / "pub_0000.json"),
               "--message", "1", "--seed", "11", "--out", str(ct_path)])
    assert rc == 0
    blob = json.loads(ct_path.read_text())
    assert blob["scheme"] == "a"
    capsys.readouterr()
    rc = main(["decrypt", "--priv", str(outdir / "private.json"), "--ct", str(ct_path)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1"


def test_encrypt_decrypt_wide_message(tmp_path, capsys):
    outdir = tmp_path / "m2"
    assert main(["keygen", "--scheme", "m2", "--n", "4", "--seed", "2",
                 "--out", str(outdir)]) == 0
    ct_path = tmp_path / "ct.json"
    capsys.readouterr()
    assert main(["encrypt", "--pub", str(outdir / "pub_0000.json"),
                 "--message", "1011", "--out", str(ct_path)]) == 0
    assert main(["decrypt", "--priv", str(outdir / "private.json"),
                 "--ct", str(ct_path)]) == 0
    assert capsys.readouterr().out.strip() == "1011"


def test_encrypt_rejects_wrong_message_width(tmp_path, capsys):
    outdir = run_keygen(tmp_path, "keys")
    capsys.readouterr()
    assert main(["encrypt", "--pub", str(outdir / "pub_0000.json"), "--message", "101"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "qpke encrypt: message must be 1 bit(s) for scheme a\n"


def test_roundtrip_command(capsys):
    rc = main(["roundtrip", "--scheme", "enh", "--n", "3", "--trials", "5"])
    assert rc == 0
    assert "correct=5" in capsys.readouterr().out


def test_analyze_csv_output(capsys):
    rc = main(["analyze", "--target", "sigma-bound", "--n", "1..4", "--seed", "9"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = [l for l in out.strip().split("\n") if not l.startswith("#")]
    assert lines[0] == analysis.CSV_HEADER
    assert len(lines) == 5
    assert out.startswith("#")


def test_analyze_json_output(capsys):
    rc = main(["analyze", "--target", "pubkey-leakage", "--n", "1..2",
               "--format", "json"])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["seed"] == 0
    assert len(blob["reports"]) == 4  # two schemes per n
    for row in blob["reports"]:
        assert "computed" in row and "margin" in row


def test_analyze_writes_file(tmp_path, capsys):
    out = tmp_path / "r.csv"
    rc = main(["analyze", "--target", "pan10-bounds", "--n", "3..4", "--t", "1..2",
               "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert analysis.CSV_HEADER in text
    assert len([l for l in text.strip().split("\n") if l and not l.startswith("#")]) == 9


def test_analyze_multicopy_options(capsys):
    rc = main(["analyze", "--target", "multicopy", "--n", "2..3", "--t", "1",
               "--reuse", "shared_s"])
    assert rc == 0
    rows = [l for l in capsys.readouterr().out.strip().split("\n")
            if l and not l.startswith("#")][1:]
    assert len(rows) == 2
    assert all(",shared_s," in r for r in rows)


def test_emit_reports_flags_violations(capsys):
    bad = analysis.SecurityReport("made-up", None, 2, None, "uniform_k", None,
                                  computed=0.9, bound=0.5)
    args = argparse.Namespace(format="csv", out=None, seed=0)
    rc = _emit_reports([bad], args, {"target": "made-up"})
    captured = capsys.readouterr()
    assert rc == 1
    assert "BOUND VIOLATED" in captured.err
    assert "made-up" in captured.out


def test_attack_pan10_key(capsys):
    rc = main(["attack", "--target", "pan10-key", "--n", "4", "--runs", "5",
               "--seed", "3"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "success_rate=1.0000" in captured.err
    blob = json.loads(captured.out)
    assert blob["success_rate"] == 1.0
    assert len(blob["runs"]) == 5


def test_attack_pan10_key_csv(tmp_path, capsys):
    out = tmp_path / "attack.csv"
    rc = main(["attack", "--target", "pan10-key", "--n", "3", "--runs", "4",
               "--format", "csv", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "target,n,copies_used,success,seed"
    assert len(lines) == 5


def test_attack_owt_baseline(capsys):
    rc = main(["attack", "--target", "owt-baseline", "--n", "2",
               "--samples", "2000", "--seed", "5"])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["expected"] == 0.25
    assert abs(blob["rate"] - 0.25) < 0.05


def test_attack_distinguish(capsys):
    rc = main(["attack", "--target", "distinguish", "--scheme", "b", "--n", "2",
               "--samples", "1500", "--seed", "6"])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["success"] is True
    assert abs(blob["analytic"] - 0.5) < 1e-9


def test_analyze_pan10_bounds_at_n64(capsys):
    rc = main(["analyze", "--target", "pan10-bounds", "--n", "64", "--t", "0..32"])
    assert rc == 0
    rows = [l for l in capsys.readouterr().out.strip().split("\n")
            if l and not l.startswith("#")][1:]
    assert len(rows) == 66


@pytest.mark.parametrize("argv", [
    ["analyze", "--target", "sigma-bound", "--n", "1..x"],
    ["analyze", "--target", "sigma-bound", "--n", "5..2"],
    ["analyze", "--target", "pan10-bounds", "--n", "3", "--t", "2.."],
    ["analyze", "--target", "sigma-bound", "--n", "0..2"],
    ["analyze", "--target", "multicopy", "--n", "2", "--t", "-1"],
    ["analyze", "--target", "multicopy", "--n", "2", "--samples", "0"],
    ["attack", "--target", "pan10-key", "--n", "3", "--runs", "0"],
    ["attack", "--target", "distinguish", "--n", "3", "--samples", "0"],
    ["attack", "--target", "owt-baseline", "--n", "3", "--samples", "-1"],
    ["attack", "--target", "pan10-key", "--n", "3", "--max-copies", "-1"],
    ["attack", "--target", "pan10-key", "--n", "3", "--max-copies", "0"],
    ["attack", "--target", "distinguish", "--n", "0"],
    ["keygen", "--scheme", "a", "--n", "0", "--out", "unused"],
    ["roundtrip", "--scheme", "a", "--n", "0"],
    ["roundtrip", "--scheme", "a", "--n", "3", "--trials", "0"],
    ["roundtrip", "--scheme", "a", "--n", "3", "--trials", "-4"],
    ["encrypt", "--pub", "unused", "--message", "1", "--format", "csv"],
])
def test_bad_arguments_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_analyze_json_config_keeps_the_range_text(capsys):
    assert main(["analyze", "--target", "sigma-bound", "--n", "3", "--format", "json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["config"]["n"] == "3" and blob["config"]["t"] == "1"


def test_sweep_is_deterministic_and_clean(tmp_path):
    first = tmp_path / "sweep1.csv"
    second = tmp_path / "sweep2.csv"
    assert main(["sweep", "--out", str(first)]) == 0
    assert main(["sweep", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    rows = [l for l in first.read_text().strip().split("\n")
            if l and not l.startswith("#")]
    assert rows[0] == analysis.CSV_HEADER
    assert len(rows) > 30


def test_dimension_cap_env(monkeypatch, capsys):
    monkeypatch.setenv("QPKE_DIM_CAP", "8")
    assert main(["analyze", "--target", "sigma-bound", "--n", "5"]) == 2
    assert capsys.readouterr().err == "qpke analyze: dimension 32 exceeds cap 8\n"


def test_sweep_requests_at_most_dimension_256(monkeypatch, capsys):
    # the shared_s rows ask for their 2^(n*t) block, not the 2^(n(t+1)) joint state
    requested, check_dim = [], qmat.check_dim

    def recording(dim):
        requested.append(dim)
        return check_dim(dim)

    monkeypatch.setattr(qmat, "check_dim", recording)
    assert main(["sweep", "--seed", "0"]) == 0
    capsys.readouterr()
    assert max(requested) == 256


@pytest.mark.parametrize("argv", [
    ["--target", "sigma-bound", "--n", "20"],
    ["--target", "multicopy", "--n", "4", "--t", "3", "--reuse", "shared_s"],
    ["--target", "multicopy", "--key-model", "sampled_anf", "--n", "2"],
    ["--target", "multicopy", "--n", "11"],
])
def test_analyze_limits_are_one_line_errors(argv, capsys):
    assert main(["analyze", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("qpke analyze: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.parametrize("argv", [
    ["--target", "owt-baseline", "--n", "21"],
])
def test_attack_limits_are_one_line_errors(argv, capsys):
    assert main(["attack", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("qpke attack: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.parametrize("target, argv, option", [
    ("distinguish", ["--m", "1", "--runs", "7", "--max-copies", "2"], "--m"),
    ("distinguish", ["--runs", "7"], "--runs"),
    ("distinguish", ["--max-copies", "2"], "--max-copies"),
    ("owt-baseline", ["--m", "6"], "--m"),
    ("owt-baseline", ["--runs", "7", "--samples", "100"], "--runs"),
    ("owt-baseline", ["--max-copies", "2"], "--max-copies"),
    ("owt-baseline", ["--scheme", "a"], "--scheme"),
    ("pan10-key", ["--scheme", "b"], "--scheme"),
    ("pan10-key", ["--samples", "50"], "--samples"),
    ("pan10-key", ["--runs", "2", "--samples", "50", "--format", "csv"], "--samples"),
])
def test_attack_rejects_options_its_target_does_not_read(target, argv, option, capsys):
    assert main(["attack", "--target", target, "--n", "3", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"qpke attack: {option} is not read by --target {target}\n"


@pytest.mark.parametrize("target, argv, option", [
    ("sigma-bound", ["--t", "7"], "--t"),
    ("sigma-bound", ["--reuse", "shared_s", "--key-model", "sampled_anf", "--samples", "5",
                     "--t", "7"], "--t"),
    ("sigma-bound", ["--key-model", "uniform_k"], "--key-model"),
    ("scheme-b-cipher", ["--reuse", "fresh_s"], "--reuse"),
    ("pubkey-leakage", ["--samples", "5"], "--samples"),
    ("pan10-bounds", ["--t", "1", "--reuse", "shared_s"], "--reuse"),
    ("pan10-bounds", ["--key-model", "sampled_anf"], "--key-model"),
    ("pan10-bounds", ["--samples", "5", "--format", "json"], "--samples"),
])
def test_analyze_rejects_options_its_target_does_not_read(target, argv, option, capsys):
    assert main(["analyze", "--target", target, "--n", "2", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"qpke analyze: {option} is not read by --target {target}\n"


@pytest.mark.parametrize("argv", [
    ["--samples", "5", "--format", "json"],
    ["--samples", "5", "--key-model", "uniform_k", "--reuse", "shared_s"],
])
def test_analyze_samples_need_sampled_anf(argv, capsys):
    assert main(["analyze", "--target", "multicopy", "--n", "2", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "qpke analyze: --samples is read only with --key-model sampled_anf\n"


@pytest.mark.parametrize("argv, defaults", [
    (["--target", "multicopy", "--n", "2"],
     ["--t", "1", "--reuse", "fresh_s", "--key-model", "uniform_k"]),
    (["--target", "multicopy", "--n", "2", "--format", "json"],
     ["--t", "1", "--reuse", "fresh_s", "--key-model", "uniform_k"]),
    (["--target", "pan10-bounds", "--n", "3", "--format", "json"], ["--t", "1"]),
])
def test_analyze_defaults_match_the_options_given(argv, defaults, capsys):
    assert main(["analyze", *argv]) == 0
    omitted = capsys.readouterr()
    assert main(["analyze", *argv, *defaults]) == 0
    assert capsys.readouterr() == omitted


@pytest.mark.parametrize("argv, defaults", [
    (["--target", "pan10-key", "--n", "3"], ["--runs", "100"]),
    (["--target", "pan10-key", "--n", "3", "--format", "csv"], ["--runs", "100"]),
    (["--target", "owt-baseline", "--n", "4"], ["--samples", "20000"]),
    (["--target", "distinguish", "--n", "2", "--samples", "500"], ["--scheme", "a"]),
    (["--target", "distinguish", "--n", "2", "--format", "csv", "--samples", "500"],
     ["--scheme", "a"]),
])
def test_attack_defaults_match_the_options_given(argv, defaults, capsys):
    assert main(["attack", *argv]) == 0
    omitted = capsys.readouterr()
    assert main(["attack", *argv, *defaults]) == 0
    assert capsys.readouterr() == omitted


def test_distinguish_has_no_dimension_limit(capsys):
    # the game is played in closed form, so n = 256 runs with default samples
    assert main(["attack", "--target", "distinguish", "--scheme", "a", "--n", "256"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["n"] == 256 and blob["samples"] == 20000
    assert blob["analytic"] == 0.5 + 0.5 * 0.5 ** 128


@pytest.mark.parametrize("argv", [
    ["keygen", "--scheme", "a", "--n", "3", "--count", "-1", "--out", "{tmp}/k"],
    ["keygen", "--scheme", "b", "--n", "3", "--m", "2", "--out", "{tmp}/k"],
    ["roundtrip", "--scheme", "b", "--n", "3", "--m", "1"],
    ["encrypt", "--pub", "{tmp}/keys/pub_0000.json", "--message", "01"],
    ["encrypt", "--pub", "{tmp}/keys/pub_0000.json", "--message", "2"],
    ["decrypt", "--priv", "{tmp}/keys/private.json", "--ct", "{tmp}/n9.json"],
    ["decrypt", "--priv", "{tmp}/keys/private.json", "--ct", "{tmp}/brace.json"],
    ["decrypt", "--priv", "{tmp}/keys/private.json", "--ct", "{tmp}/list.json"],
    ["attack", "--target", "owt-baseline", "--n", "2", "--format", "csv"],
])
def test_rejected_inputs_are_one_line_errors(argv, tmp_path, capsys):
    keys = run_keygen(tmp_path, "keys")  # scheme a: one-bit messages, n=3, m=6
    ct = tmp_path / "ct.json"
    assert main(["encrypt", "--pub", str(keys / "pub_0000.json"), "--message", "1",
                 "--out", str(ct)]) == 0
    (tmp_path / "n9.json").write_text(json.dumps({**json.loads(ct.read_text()), "n": 9}))
    (tmp_path / "brace.json").write_text("{")
    (tmp_path / "list.json").write_text("[]")
    capsys.readouterr()
    assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"qpke {argv[0]}: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert not (tmp_path / "k").exists()


@pytest.mark.parametrize("argv, culprit, reason", [
    (["decrypt", "--priv", "{tmp}/nope.json", "--ct", "{tmp}/nope.json"],
     "nope.json", "No such file or directory"),
    (["decrypt", "--priv", "{tmp}/keys/private.json", "--ct", "{tmp}/missing.json"],
     "missing.json", "No such file or directory"),
    (["encrypt", "--pub", "{tmp}/keys", "--message", "1"], "keys", "Is a directory"),
    (["decrypt", "--priv", "{tmp}/empty.json", "--ct", "{tmp}/empty.json"],
     "empty.json", "Expecting value"),
    (["decrypt", "--priv", "{tmp}/keys/private.json", "--ct", "{tmp}/binary.json"],
     "binary.json", "'utf-8' codec can't decode"),
    (["encrypt", "--pub", "{tmp}/empty.json", "--message", "1"], "empty.json", "Expecting value"),
    (["decrypt", "--priv", "{tmp}/keys/private.json", "--ct", "{tmp}/n9.json"],
     "n9.json", "n, m: expected integers"),
    (["keygen", "--scheme", "a", "--n", "3", "--out", "{tmp}/empty.json"],
     "empty.json", "File exists"),
])
def test_file_errors_name_the_path(argv, culprit, reason, tmp_path, capsys):
    keys = run_keygen(tmp_path, "keys")
    pub = json.loads((keys / "pub_0000.json").read_text())
    (tmp_path / "n9.json").write_text(json.dumps({**pub, "n": 9}))
    (tmp_path / "empty.json").write_text("")
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe")
    capsys.readouterr()
    assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"qpke {argv[0]}: {tmp_path / culprit}: {reason}")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert (tmp_path / "empty.json").read_text() == ""


def _set(path, value):
    """An edit that sets obj[path[0]][path[1]]... to value."""
    def edit(obj):
        reduce(lambda o, key: o[key], path[:-1], obj)[path[-1]] = value
    return edit


@pytest.mark.parametrize("scheme, field, edit, reason", [
    ("a", "ct", _set(["quantum", "qubits", 0, 1], 1.5),
     "phase: expected an integer exponent of i, got 1.5"),
    ("a", "ct", _set(["quantum", "global_phase"], 0.25),
     "global_phase: expected an integer exponent of i, got 0.25"),
    ("a", "ct", _set(["quantum", "qubits", 2, 1], True),
     "phase: expected an integer exponent of i, got True"),
    ("pan10", "ct", _set(["quantum", "rel_phase"], 2.0),
     "rel_phase: expected an integer exponent of i, got 2.0"),
    ("b", "priv", _set(["f2", "n_out"], True),
     "m, n_out: expected integers, got m=6, n_out=True"),
    ("b", "priv", _set(["f1", "m"], 6.0),
     "m, n_out: expected integers, got m=6.0, n_out=3"),
], ids=["qubit-phase-float", "global-phase-float", "qubit-phase-bool", "rel-phase-float",
        "n_out-bool", "m-float"])
def test_non_integer_phases_and_widths_name_the_file(scheme, field, edit, reason,
                                                      tmp_path, capsys):
    keys = tmp_path / "keys"
    assert main(["keygen", "--scheme", scheme, "--n", "3", "--seed", "7",
                 "--out", str(keys)]) == 0
    files = {"priv": keys / "private.json", "ct": tmp_path / "ct.json"}
    assert main(["encrypt", "--pub", str(keys / "pub_0000.json"), "--message", "1",
                 "--out", str(files["ct"])]) == 0
    obj = json.loads(files[field].read_text())
    edit(obj)
    files[field] = tmp_path / "bad.json"
    files[field].write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["decrypt", "--priv", str(files["priv"]), "--ct", str(files["ct"])]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"qpke decrypt: {files[field]}: ")
    assert reason in captured.err
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


# Z <-> X on one qubit: the private key no longer turns it back into |0> or |1>.
_FLIP_BASIS = {"Z0": "X+", "X+": "Z0", "Z1": "X-", "X-": "Z1"}


@pytest.mark.parametrize("scheme, path, field", [
    ("a", ["quantum", "qubits", 0], "quantum"),
    ("enh", ["label", "qubits", 0], "label"),
])
def test_ciphertext_in_the_wrong_basis_is_a_one_line_error(scheme, path, field,
                                                           tmp_path, capsys):
    keys, ct = tmp_path / "keys", tmp_path / "ct.json"
    assert main(["keygen", "--scheme", scheme, "--n", "3", "--seed", "7",
                 "--out", str(keys)]) == 0
    assert main(["encrypt", "--pub", str(keys / "pub_0000.json"), "--message", "1",
                 "--out", str(ct)]) == 0
    obj = json.loads(ct.read_text())
    qubit = reduce(lambda o, key: o[key], path, obj)
    qubit[0] = _FLIP_BASIS[qubit[0]]
    ct.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["decrypt", "--priv", str(keys / "private.json"), "--ct", str(ct)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"qpke decrypt: {field}: state does not match this private key\n"


def test_rejected_input_exits_2_without_a_traceback(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-m", "qpke.cli", "keygen", "--scheme", "a",
                           "--n", "3", "--count", "-1", "--out", str(tmp_path / "keys")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "qpke keygen: count must be >= 0, got -1\n"
    assert "Traceback" not in proc.stderr


def test_attack_distinguish_scheme_b_at_n8(capsys):
    assert main(["attack", "--target", "distinguish", "--scheme", "b", "--n", "8",
                 "--samples", "2000"]) == 0
    assert json.loads(capsys.readouterr().out)["success"] is True


@pytest.mark.parametrize("n", [16, 64])
def test_attack_pan10_key_past_the_dense_range(n, capsys):
    rc = main(["attack", "--target", "pan10-key", "--n", str(n), "--runs", "5",
               "--seed", "8"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["success_rate"] == 1.0
