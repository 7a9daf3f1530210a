"""Self-check of the benchmark: feed each correctness check a wrong value
and show that it is caught, and that the right value passes.

    python3 perfbench/selfcheck.py

Also checks the arithmetic of the host-speed scaling, and that
BENCHMARK.json names exactly the metrics run.py prints, with the same units. Exits nonzero on the first check that misbehaves.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from hostspeed import NOMINAL_LOOP_S, HostSpeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

CSV_HEADER = "quantity,scheme,n,t,key_model,reuse,computed,bound,margin,seed"


def sweep_csv(rows: list[dict]) -> str:
    """The reference rows printed the way `qpke sweep` prints them."""
    lines = ["# seed=0", CSV_HEADER]
    for r in rows:
        bound = "" if r["bound"] is None else format(r["bound"], ".12g")
        lines.append(",".join((r["quantity"], r["scheme"], r["n"], r["t"], "uniform_k",
                               r["reuse"], format(r["computed"], ".12g"), bound, "", "")))
    return "\n".join(lines) + "\n"


def sweep_problems(rows: list[dict], reference: list[dict]) -> list[str]:
    per_row, extra = checks.sweep_rows(checks.parse_sweep_csv(sweep_csv(rows)), reference)
    return [p for problems in per_row for p in problems] + extra


def expect(name: str, problems: list[str], caught: bool) -> bool:
    ok = bool(problems) == caught
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {problems[0] if problems else 'no problem'}")
    return ok


def main() -> int:
    ref = checks.load_sweep_reference()
    i_le = next(i for i, r in enumerate(ref) if r["bound"] is not None and r["mode"] == "le")
    results = [expect("sweep as recorded", sweep_problems(ref, ref), caught=False)]

    def shifted(i: int, delta: float, base=ref) -> list[dict]:
        rows = [dict(r) for r in base]
        rows[i]["computed"] += delta
        return rows

    results += [
        expect("sweep row moved in the 13th digit", sweep_problems(shifted(5, 3e-13), ref), False),
        expect("sweep row perturbed by 1e-9", sweep_problems(shifted(5, 1e-9), ref), True),
        expect("sweep row missing", sweep_problems(ref[:-1], ref), True),
        expect("sweep row added", sweep_problems(ref + ref[:1], ref), True),
        expect("sweep rows swapped", sweep_problems([ref[1], ref[0], *ref[2:]], ref), True),
    ]
    # A bound violation that the reference itself records must still fail.
    over = ref[i_le]["bound"] + 1e-6 - ref[i_le]["computed"]
    bad_ref = shifted(i_le, over)
    results += [
        expect("sweep bound violated", sweep_problems(bad_ref, bad_ref), True),
        expect("sweep exit code 1", checks.sweep_exit(1), True),
        expect("sweep exit code 0", checks.sweep_exit(0), False),
        expect("right decryption", checks.decryption(5, 5), False),
        expect("wrong decryption", checks.decryption(5, 4), True),
        expect("recovered key is k", checks.key_recovery(
            SimpleNamespace(success=True, recovered=6), 6), False),
        expect("recovered key is not k", checks.key_recovery(
            SimpleNamespace(success=True, recovered=3), 6), True),
        expect("distinguisher a n=4 analytic", checks.distinguisher("a", 4, 0.625), False),
        expect("distinguisher b n=4 analytic off", checks.distinguisher("b", 4, 0.51), True),
        expect("collision rate off the trial grid", checks.collision_rate(0.5 / 3, 20), True),
    ]

    # Operation accounting: a wrong output fails its op and marks the run
    # incorrect; a missed verdict or an exception only fails its op.
    p = workloads.Pass()
    p.op("wrong decryption", lambda: checks.decryption(1, 0))
    p.op("missed verdict", lambda: checks.verdict(False, "empirical rate outside 3 sigma"))
    p.op("raises", lambda: 1 // 0)
    p.op("right", lambda: checks.decryption(1, 1))
    failures = [failure for *_, failure in p.ops]
    accounted = failures == ["wrong output", "VerdictMissed", "ZeroDivisionError", None] \
        and len(p.problems) == 1
    print(f"{'ok  ' if accounted else 'FAIL'} op accounting: {failures}, "
          f"{len(p.problems)} problem(s)")
    results.append(accounted)

    # Host-speed scaling: the probes are cut out of an interval, and what is
    # left is divided by the slowdown the probes nearest it measured.
    host = HostSpeed()
    host.starts, host.ends = [1.0, 2.0], [1.1, 2.1]
    host.loop_s = [2 * NOMINAL_LOOP_S, 2 * NOMINAL_LOOP_S]
    raw, scaled = host.raw(0.5, 2.5), host.scaled(0.5, 2.5)
    scaling_ok = abs(raw - 1.8) < 1e-9 and abs(scaled - 0.9) < 1e-9
    print(f"{'ok  ' if scaling_ok else 'FAIL'} host-speed scaling: 2 s with 0.2 s of "
          f"probes at slowdown 2 read {raw:.3f} s as measured, {scaled:.3f} s scaled")
    results.append(scaling_ok)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = {f"{g}.{s}" for g, stats in spans.LAYER_STATS for s in stats} | {
        "bits.rand_bits.calls", "attacks.copies_per_recovery", "trace.overhead_frac"}
    names_ok = declared == run.END_TO_END_UNITS and set(layers) == emitted and all(
        run.layer_unit(name) == unit for name, unit in layers.items())
    print(f"{'ok  ' if names_ok else 'FAIL'} BENCHMARK.json names the metrics run.py prints")
    results.append(names_ok)

    print(f"{sum(results)}/{len(results)} self-checks passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
