"""`qpke sweep --seed 0` against the rows pinned in perfbench/sweep_reference.json.

The comparison is the benchmark's own: perfbench/checks.py is imported as it
stands, so a row that drifts past 1e-12 (or loses its bound) fails here too.
"""
import importlib.util
from pathlib import Path

from qpke.cli import main

_CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"


def _load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", _CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_matches_its_reference(capsys):
    checks = _load_checks()
    assert main(["sweep", "--seed", "0"]) == 0
    rows = checks.parse_sweep_csv(capsys.readouterr().out)
    per_row, extra = checks.sweep_rows(rows, checks.load_sweep_reference())
    problems = [p for row in per_row for p in row] + extra
    assert not problems, "\n".join(problems)
    assert len(rows) == len(per_row)
