#!/usr/bin/env python3
"""Store the closed-form and quadrature outputs that checks.py compares with.

    python3 perfbench/make_reference.py

Runs every scan, carpet and oracle job of every workload, for each window
shift, with the package in src/, and writes reference/seed_outputs.json.
Run it only on the commit whose outputs are the reference (the seed
commit); the checks then hold later commits to those numbers.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import jobs as jobdefs  # noqa: E402
from run import TMP_ROOT, git_commit  # noqa: E402


def stored_columns(job, path: Path) -> dict:
    if job.kind == "scan":
        _, _, rows = checks.read_table(path)
        return {"rate_raw": rows[:, 3].tolist()}
    if job.kind == "oracle":
        _, _, rows = checks.read_table(path)
        return {"analytic": rows[:, 1].tolist(), "oracle": rows[:, 2].tolist()}
    lines = [line for line in path.read_text(encoding="utf-8").splitlines()
             if line and not line.startswith("#")]
    values = np.array([[float(v) for v in line.split(",")[1:]]
                       for line in lines[1:]])
    rows = list(range(0, values.shape[0], max(1, values.shape[0] // 16)))
    cols = list(range(0, values.shape[1], max(1, values.shape[1] // 16)))
    return {"rows": rows, "cols": cols,
            "values": values[np.ix_(rows, cols)].tolist()}


def main() -> int:
    from talbot_sim import cli

    outputs = {}
    TMP_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP_ROOT) as tmp:
        for k in range(jobdefs.OFFSETS):
            for job in jobdefs.reference_jobs(k):
                path = Path(tmp) / job.out_name
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(list(job.argv) + ["--out", str(path)])
                if rc != 0:
                    print(f"error: {job.name} exited {rc}", file=sys.stderr)
                    return 1
                outputs[f"{job.name}@{k}"] = stored_columns(job, path)
                print(f"stored {job.name}@{k}")
    with open(checks.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump({"commit": git_commit(), "outputs": outputs}, fh,
                  separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
