"""Correctness checks on the outputs of the workloads.

Each check returns a list of problems; an empty list means the output is
right. The workloads and selfcheck.py call the same functions, so the
self-check shows that these exact checks catch a wrong value.

A problem marks an output that is wrong by a deterministic test (the run
then reports correct=false). A statistical verdict of the package (a 3-sigma
gate, a key recovery that ran out of copies) is not a problem: it fails its
operation and is counted in `failed` only, because an honest program misses
such a gate on about 0.3% of seeds.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

SWEEP_REFERENCE = Path(__file__).with_name("sweep_reference.json")
TOL = 1e-12
SWEEP_KEY = ("quantity", "scheme", "n", "t", "reuse")


class VerdictMissed(Exception):
    """A statistical verdict of the package went the wrong way."""


def verdict(success: bool, why: str) -> None:
    """Fail the operation, without marking its output wrong, on a missed verdict."""
    if not success:
        raise VerdictMissed(why)


def load_sweep_reference() -> list[dict]:
    return json.loads(SWEEP_REFERENCE.read_text())["rows"]


def parse_sweep_csv(text: str) -> list[dict]:
    """Rows of a `qpke sweep` CSV as dicts of strings (provenance lines skipped)."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _print_slack(x: float) -> float:
    """Half a unit in the 12th significant digit, the CSV's print precision."""
    return 0.0 if x == 0 else 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 11)


def _close(text: str, ref: float) -> bool:
    return abs(float(text) - ref) <= TOL + _print_slack(ref)


def sweep_row(row: dict | None, ref: dict) -> list[str]:
    """One CSV row against its reference row: same key, computed and bound
    within 1e-12 of the reference (plus the CSV's rounding), bound holding."""
    label = "/".join(ref[k] for k in SWEEP_KEY)
    if row is None:
        return [f"{label}: row missing"]
    if tuple(row.get(k) for k in SWEEP_KEY) != tuple(ref[k] for k in SWEEP_KEY):
        got = "/".join(str(row.get(k)) for k in SWEEP_KEY)
        return [f"{label}: got row {got}"]
    try:
        computed = float(row["computed"])
        bound = None if row["bound"] == "" else float(row["bound"])
    except (KeyError, ValueError) as exc:
        return [f"{label}: unreadable row ({exc})"]
    problems = []
    if not _close(row["computed"], ref["computed"]):
        problems.append(f"{label}: computed {computed!r} != reference {ref['computed']!r}")
    if (bound is None) != (ref["bound"] is None) or \
            (bound is not None and not _close(row["bound"], ref["bound"])):
        problems.append(f"{label}: bound {bound!r} != reference {ref['bound']!r}")
    elif bound is not None:
        held = abs(computed - bound) <= ref["tol"] if ref["mode"] == "eq" \
            else computed <= bound + ref["tol"]
        if not held:
            problems.append(f"{label}: computed {computed!r} violates bound {bound!r}")
    return problems


def sweep_rows(rows: list[dict], reference: list[dict]) -> tuple[list[list[str]], list[str]]:
    """Problems per reference row, and problems with rows beyond the reference."""
    per_row = [sweep_row(rows[i] if i < len(rows) else None, ref)
               for i, ref in enumerate(reference)]
    extra = [f"unexpected row {'/'.join(str(r.get(k)) for k in SWEEP_KEY)}"
             for r in rows[len(reference):]]
    return per_row, extra


def sweep_exit(code) -> list[str]:
    return [] if code == 0 else [f"qpke sweep exited with {code!r}"]


def decryption(message: int, decrypted) -> list[str]:
    return [] if decrypted == message else [f"decrypted {decrypted!r}, sent {message}"]


def key_recovery(outcome, true_k: int) -> list[str]:
    """A recovery that claims success must return the published key k."""
    if outcome.success and outcome.recovered != true_k:
        return [f"recovered key {outcome.recovered!r} but k = {true_k}"]
    return []


def distinguisher(scheme: str, n: int, analytic: float) -> list[str]:
    """The optimal success rate is 1/2 + D/2 with D = (sqrt(2)/2)^n for
    scheme a and D = 0 for b and m2."""
    d = math.sqrt(0.5) ** n if scheme == "a" else 0.0
    expected = 0.5 + 0.5 * d
    if abs(analytic - expected) > TOL:
        return [f"distinguish {scheme} n={n}: analytic {analytic!r} != {expected!r}"]
    return []


def collision_rate(rate: float, trials: int) -> list[str]:
    hits = rate * trials
    if not 0.0 <= rate <= 1.0 or abs(hits - round(hits)) > 1e-6:
        return [f"collision rate {rate!r} is not a count over {trials} trials"]
    return []
