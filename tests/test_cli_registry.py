"""The analysis-target registry behind `analyze` and `sweep`, and the attack
outcome emitter."""
import json

from qpke import analysis
from qpke.attacks import AttackOutcome, DistinguisherOutcome
from qpke.cli import TARGETS, build_parser, main


def data_rows(text):
    return [l for l in text.strip().split("\n") if l and not l.startswith("#")][1:]


def test_analyze_targets_keep_their_names_and_order():
    assert tuple(TARGETS) == (
        "sigma-bound", "channel-identity", "scheme-a-cipher", "scheme-b-cipher",
        "scheme-m1-cipher", "scheme-m2-cipher", "pubkey-leakage", "multicopy",
        "pan10-bounds")
    for name in TARGETS:
        assert build_parser().parse_args(["analyze", "--target", name, "--n", "1"]).target == name


def test_sweep_points_give_the_65_sweep_rows():
    sizes = {"pubkey-leakage": 2, "pan10-bounds": 2}  # rows per (n, t)
    expected = sum(sizes.get(name, 1) * len(ts) for name, (_, points) in TARGETS.items()
                   for _, ts, _ in points)
    assert expected == 65


def test_registry_looks_functions_up_when_called(monkeypatch, capsys):
    # A wrapper installed on the analysis module must see registry calls.
    seen = []
    original = analysis.sigma_bound_report

    def wrapped(n):
        seen.append(n)
        return original(n)

    monkeypatch.setattr(analysis, "sigma_bound_report", wrapped)
    assert main(["analyze", "--target", "sigma-bound", "--n", "1..3"]) == 0
    assert seen == [1, 2, 3]
    assert len(data_rows(capsys.readouterr().out)) == 3


def test_analyze_json_rows_use_the_csv_fields(capsys):
    assert main(["analyze", "--target", "scheme-a-cipher", "--n", "2",
                 "--format", "json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["reports"]
    assert sorted(row) == sorted(analysis.CSV_HEADER.split(","))


def test_attack_distinguish_csv_header_names_samples(capsys):
    assert main(["attack", "--target", "distinguish", "--scheme", "a", "--n", "2",
                 "--samples", "400", "--seed", "4", "--format", "csv"]) == 0
    header, row = capsys.readouterr().out.strip().split("\n")
    assert header == "target,n,samples,success,seed"
    assert row == "distinguish,2,400,true,4"


def test_attack_owt_baseline_has_no_csv_form(capsys):
    assert main(["attack", "--target", "owt-baseline", "--n", "2", "--samples", "100",
                 "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "qpke attack: owt-baseline has no CSV form; use --format json\n"


def test_attack_outcome_csv_comes_from_its_fields():
    assert AttackOutcome.csv_header() == ",".join(AttackOutcome.CSV_FIELDS)
    assert DistinguisherOutcome.csv_header() == "target,n,samples,success,seed"
