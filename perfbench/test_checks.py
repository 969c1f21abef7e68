"""The benchmark's own tests: every output check passes on real CLI output
and fails on a deliberately corrupted copy.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import jobs as jobdefs  # noqa: E402
import run  # noqa: E402

K = 0


def _light(name):
    _, light = jobdefs.workload_jobs("oracle-crosscheck", K)
    jobs = {job.name: job for job in light}
    jobs.update((job.name, job) for job in jobdefs.workload_jobs("detector-scan", K)[1])
    return jobs[name]


NAMES = ("scan-light", "scan-fine-light", "mc-light", "carpet-light",
         "analyze-light", "oracle-10mm-2L")


@pytest.fixture(scope="module")
def outputs():
    from talbot_sim import cli

    run.TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="test-", dir=run.TMP_ROOT))
    paths = {}
    for name in NAMES:
        job = _light(name)
        paths[name] = tmp / job.out_name
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(list(job.argv) + ["--out", str(paths[name])]) == 0
    yield paths
    shutil.rmtree(tmp, ignore_errors=True)


@pytest.fixture(scope="module")
def reference():
    return checks.load_reference()


def _check(name, path, outputs, reference):
    names = dict(outputs)
    names[name] = path
    return checks.check_job(_light(name), path, reference, K, names)


def _failed(results):
    return [r for r in results if not r[1]]


def _edit_csv(src: Path, dst: Path, row: int, col: int, fn) -> None:
    """Copy a CLI CSV, replacing data cell (row, col) with fn(value)."""
    lines = src.read_text(encoding="utf-8").splitlines()
    data = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
    i = data[1 + row]
    cells = lines[i].split(",")
    cells[col] = repr(fn(float(cells[col])))
    lines[i] = ",".join(cells)
    dst.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("name", NAMES)
def test_real_output_passes(name, outputs, reference):
    assert _failed(_check(name, outputs[name], outputs, reference)) == []


@pytest.mark.parametrize("name,row,col,fn", [
    # one scan point off by a millionth of the peak
    ("scan-light", 3, 3, lambda v: v * (1 + 1e-6)),
    ("scan-fine-light", 0, 3, lambda v: v * (1 + 1e-6)),
    # a slit position moved by a tenth of a step
    ("scan-light", 5, 1, lambda v: v + 1.2e-6),
    # a raster value off by a millionth, at a stored cell and at one that
    # only the harmonic sum covers
    ("carpet-light", 4, 1, lambda v: v * (1 - 1e-6)),
    ("carpet-light", 3, 6, lambda v: v * (1 - 1e-6)),
    # quadrature drifted by a percent
    ("oracle-10mm-2L", 32, 2, lambda v: v * 1.01),
    # closed-form column off by a millionth
    ("oracle-10mm-2L", 33, 1, lambda v: v * (1 + 1e-6)),
    # a count that is not a whole number, and one far off its mean
    ("mc-light", 10, 1, lambda v: v + 0.5),
    ("mc-light", 20, 1, lambda v: v + 400),
])
def test_corrupted_csv_fails(name, row, col, fn, outputs, reference, tmp_path):
    bad = tmp_path / outputs[name].name
    _edit_csv(outputs[name], bad, row, col, fn)
    assert _failed(_check(name, bad, outputs, reference))


def test_scaled_counts_fail(outputs, reference, tmp_path):
    """Counts 10% high everywhere (with matching error bars) are not
    Poisson draws around the scan curve."""
    lines = outputs["mc-light"].read_text(encoding="utf-8").splitlines()
    out = []
    for line in lines:
        if line[:1].isdigit() or line[:1] == "-":
            x, c, _ = line.split(",")
            c = round(float(c) * 1.1)
            line = f"{x},{c},{c ** 0.5!r}"
        out.append(line)
    bad = tmp_path / "mc.csv"
    bad.write_text("\n".join(out) + "\n", encoding="utf-8")
    assert _failed(_check("mc-light", bad, outputs, reference))


def test_wrong_revival_fails(outputs, reference, tmp_path):
    text = outputs["analyze-light"].read_text(encoding="utf-8")
    bad = tmp_path / "analyze.txt"
    lines = [("revival_mm = 175.5" if line.startswith("revival_mm") else line)
             for line in text.splitlines()]
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert _failed(_check("analyze-light", bad, outputs, reference))


@pytest.mark.parametrize("name", NAMES)
def test_truncated_file_fails_without_raising(name, outputs, reference, tmp_path):
    src = outputs[name].read_text(encoding="utf-8").splitlines()
    bad = tmp_path / outputs[name].name
    bad.write_text("\n".join(src[: len(src) // 2]) + "\n", encoding="utf-8")
    assert _failed(_check(name, bad, outputs, reference))


def test_changed_bytes_between_runs_fail(outputs):
    job = _light("scan-light")
    tmp = outputs["scan-light"].parent
    good = checks.sha256(outputs["scan-light"])
    records = [{"job": job.name, "rc": 0, "error": None, "digest": d}
               for d in (good, good, "0" * 64)]
    summary = run.check_outputs(records, {job.name: job}, tmp, K)
    assert summary["failed"] == 1
    assert "same bytes" in summary["failures"][0]


def test_failed_exit_is_counted(outputs):
    job = _light("scan-light")
    tmp = outputs["scan-light"].parent
    good = checks.sha256(outputs["scan-light"])
    records = [{"job": job.name, "rc": 3, "error": None, "digest": good}]
    assert run.check_outputs(records, {job.name: job}, tmp, K)["failed"] == 1


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(jobdefs.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
