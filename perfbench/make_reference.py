"""Write sweep_reference.json: the rows of `qpke sweep` at full precision.

Run from the repository root on the commit the reference should pin:

    python3 perfbench/make_reference.py

Row keys are taken from the CSV as printed; computed, bound, mode and tol
from the report objects behind it, so the reference keeps every digit.
"""
from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import qpke  # noqa: E402
from qpke import cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    reports = []
    out = io.StringIO()
    with workloads.on_report(reports.append), contextlib.redirect_stdout(out):
        code = cli.main(["sweep", "--seed", "0"])
    rows = checks.parse_sweep_csv(out.getvalue())
    if code != 0 or len(rows) != len(reports):
        raise SystemExit(f"sweep exited {code} with {len(rows)} rows, {len(reports)} reports")

    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True, timeout=30).stdout.strip() or None
    ref = [{**{k: row[k] for k in checks.SWEEP_KEY},
            "computed": float(r.computed),
            "bound": None if r.bound is None else float(r.bound),
            "mode": r.mode, "tol": r.tol} for row, r in zip(rows, reports)]
    meta = {"command": "qpke sweep --seed 0", "commit": commit,
            "qpke": qpke.__version__, "numpy": np.__version__,
            "python": sys.version.split()[0]}
    checks.SWEEP_REFERENCE.write_text(json.dumps({"meta": meta, "rows": ref}, indent=1) + "\n")
    print(f"wrote {len(ref)} rows to {checks.SWEEP_REFERENCE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
