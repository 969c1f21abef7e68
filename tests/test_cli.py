"""Command-line interface: files, exit codes, reports, reproducibility."""

import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import talbot_sim
from talbot_sim import cli
from talbot_sim.cli import build_parser, main
from talbot_sim.config import CONFIG_KEYS

from helpers import read_pgm

# quick settings shared by most invocations: modest truncation and a
# plane wave keep each command well under a second
FAST = ["--trunc", "25", "--z0=none"]


def _data_lines(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return [ln for ln in lines if not ln.startswith("#")]


def _echoed_config(path):
    # config echo lines look like '# key = value'; the outputs after them
    # (magnification, rng, ...) use '# name: value'
    out = []
    for ln in path.read_text(encoding="utf-8").splitlines():
        if not ln.startswith("# ") or "=" not in ln:
            continue
        key = ln[2:].split("=", 1)[0].strip()
        if key in CONFIG_KEYS:
            out.append(ln[2:].strip())
    return "\n".join(out) + "\n"


def test_scan_writes_csv(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--out", str(out)] + FAST) == 0
    rows = _data_lines(out)
    assert rows[0] == "x_over_d,x_m,rate_normalized,rate_raw"
    assert len(rows) == 1 + 101
    first = rows[1].split(",")
    assert len(first) == 4
    assert float(first[0]) == pytest.approx(-600e-6 / 360e-6, rel=1e-9)
    assert max(float(r.split(",")[2]) for r in rows[1:]) == 1.0


# non-default keys for the scan, mc and analyze runs below
_SCAN_KEYS = ["--f", "0.35", "--scan-start=-300um", "--lambda0", "805nm",
              "--spectral-samples", "11"] + FAST
# carpet's z window and oracle's x window stay at their defaults, which
# follow lambda0, d and z
_FIELD_KEYS = ["--lambda0", "700nm", "--f", "0.35", "--z0", "1.5m",
               "--trunc", "25"]


# each run, including its own non-default keys, reruns from its echo alone
@pytest.mark.parametrize("command, keys", [
    ("scan", _SCAN_KEYS),
    ("mc", _SCAN_KEYS + ["--seed", "7", "--events-per-point", "200"]),
    ("analyze", _SCAN_KEYS + ["--z-lo=150mm", "--z-hi=170mm",
                              "--z-steps", "32"]),
    ("carpet", _FIELD_KEYS + ["--x-count", "16", "--z-count", "8", "--norm",
                              "per-column-max-one", "--x-min=-100um"]),
    ("oracle", _FIELD_KEYS + ["--points", "9"]),
], ids=["scan", "mc", "analyze", "carpet", "oracle"])
def test_scan_round_trips_through_its_own_echo(tmp_path, command, keys):
    first = tmp_path / "first.csv"
    assert main([command, "--out", str(first)] + keys) == 0
    cfg = tmp_path / "echo.cfg"
    cfg.write_text(_echoed_config(first), encoding="utf-8")
    second = tmp_path / "second.csv"
    assert main([command, "--out", str(second), "--config", str(cfg)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_exit_code_for_config_problems(tmp_path, capsys):
    assert main(["scan", "--config", str(tmp_path / "missing.cfg"),
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    bad = tmp_path / "bad.cfg"
    bad.write_text("f = quick\n", encoding="utf-8")
    assert main(["scan", "--config", str(bad),
                 "--out", str(tmp_path / "x.csv")]) == 2
    # numbers beyond the double range, from flags or a config file
    huge = tmp_path / "huge.cfg"
    huge.write_text("z = 1e400\n", encoding="utf-8")
    for argv in (["scan", "--scan-end", "1e400"], ["scan", "--trunc", "1e400"],
                 ["scan", "--d", "1e400"], ["oracle", "--z", "1e400"],
                 ["oracle", "--config", str(huge)]):
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 2
        assert "out of range" in capsys.readouterr().err
    # the spectral quadrature key, from a flag and from a config file: a
    # bad number is a config problem, an even node count a domain problem
    spectral = tmp_path / "spectral.cfg"
    for key, text, code, fragment in (
            ("spectral_samples", "1.5", 2, "expected an integer"),
            ("spectral_samples", "2", 3, "samples must be odd")):
        spectral.write_text(f"f = 0.1\n{key} = {text}\n", encoding="utf-8")
        for argv in (["--" + key.replace("_", "-"), text],
                     ["--config", str(spectral)]):
            assert main(["scan", *argv,
                         "--out", str(tmp_path / "x.csv")]) == code
            err = capsys.readouterr().err
            assert fragment in err
            # a parse error names the line or the flag it came from
            if code == 2:
                assert (f"{spectral}:2:" if argv[0] == "--config"
                        else f"error: argument {argv[0]}: ") in err


def test_exit_code_for_domain_problems(tmp_path, capsys):
    out = tmp_path / "x.csv"
    # numpy refuses every array length after the first run's before
    # allocating: each is 2**63 or more, the order counts 2*trunc + 1
    # included (auto trunc at f = 1e-300 is 8e300)
    huge = "20000000000000000000"
    for argv in (["scan", "--f", "0"],
                 ["scan", "--scan-start=1e300", "--scan-end=1e301"],
                 ["carpet", "--x-count", huge], ["oracle", "--points", huge],
                 ["mask", "--width-px", huge], ["scan", "--f", "1e-300"],
                 ["scan", "--trunc", "1e30"], ["carpet", "--trunc", "1e19"],
                 # lambda0*z underflows to 0, so the Fresnel scale is inf
                 ["oracle", "--lambda0", "1e-200", "--z", "1e-200"],
                 ["oracle", "--lambda0", "1e-200", "--z", "1e-200",
                  "--z0=none"],
                 # the oracle's field underflows to 0
                 ["oracle", "--lambda0", "1e200", "--z", "1e200"],
                 # the chirp phase b*trunc^2 is not finite: lambda0*z
                 # overflows, d^2 underflows to 0, b overflows, n^2*b does
                 ["oracle", "--z0=none", "--lambda0", "1e200", "--z", "1e200"],
                 ["scan", "--d=1e-300"],
                 ["mc", "--lambda0=1e300", "--d=1e-6", "--seed", "1"],
                 ["mc", "--z0=0.3", "--lambda0=1e300", "--seed", "1"],
                 # the magnification 1 + z/z0 overflows
                 ["carpet", "--z0=1e-200", "--z-max=1e200"],
                 # so does the outermost spectral node, lambda0 + 3*beta
                 ["scan", "--fwhm=1e308"],
                 # an odd node count numpy cannot size
                 ["scan", "--spectral-samples", "9999999999999999999"],
                 ["mc", "--seed", "1", "--spectral-samples",
                  "100000000000000000000000000001"],
                 ["analyze", "--spectral-samples", "9999999999999999999"],
                 # and the magnified period d*(1 + z/z0), whose a = 2*pi/(d*M)
                 # would underflow to 0 and make the slit factor 0/0
                 ["scan", "--z0=1e-200", "--d=1e154"],
                 ["mc", "--seed", "1", "--z0=1e-200", "--d=1e154"],
                 ["analyze", "--z0=1e-200", "--d=1e154"],
                 ["carpet", "--z0=1e-200", "--d=1e154", "--trunc", "5",
                  "--z-min", "1", "--z-max", "2"],
                 # and the period in pixels d/pixel_pitch
                 ["mask", "--pixel-pitch=5e-324"],
                 ["mask", "--d=1e10", "--pixel-pitch=1e-300"],
                 # and the reduced distance z*z0/(z + z0)
                 ["scan", "--z0=1e300", "--z=1e300"],
                 # and the harmonic phases at the positions: the chirp-z
                 # step's, the direct sums' q*a*x, and a window whose
                 # width x_max - x_min is beyond a double
                 ["oracle", "--points", "5", "--x-max=1e308"],
                 ["scan", "--scan-start=0", "--scan-end=1e308",
                  "--scan-step=2.5e307"],
                 ["oracle", "--points", "1", "--x-min=1e308"],
                 ["carpet", "--x-min=-1e308", "--x-max=1e308",
                  "--x-count", "5", "--z-count", "2"]):
        assert main(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_huge_positions_with_finite_phases_are_computed(tmp_path):
    # a window from 1e300 to 2e300 m keeps every harmonic phase finite
    out = tmp_path / "carpet.csv"
    assert main(["carpet", "--x-min=1e300", "--x-max=2e300", "--x-count",
                 "5", "--z-count", "2", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()
            if not line.startswith("#")]
    values = [float(v) for row in rows[1:] for v in row[1:]]
    assert values and all(math.isfinite(v) for v in values)


@pytest.mark.parametrize("command", ["scan", "carpet", "mc", "oracle",
                                     "analyze"])
@pytest.mark.parametrize("d", ["1e160", "1e300"])
def test_period_whose_square_overflows_is_a_domain_error(tmp_path, capsys,
                                                         command, d):
    # d*d enters every plane's chirp and the carpet's default z window
    out = tmp_path / "x.out"
    seed = ["--seed", "1"] if command == "mc" else []
    assert main([command, "--d", d, "--out", str(out)] + seed) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: grating period d ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_derived_window_that_overflows_is_a_domain_error(tmp_path, capsys):
    # d*d is finite but d*d/lambda0 is not, so the carpet's auto z window
    # would be inf: the key is named before any array is made
    out = tmp_path / "x.csv"
    assert main(["carpet", "--d", "1e154", "--trunc", "50",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: z_min = auto ") and err.count("\n") == 1
    assert not out.exists()


def test_bad_thread_count_is_one_line(tmp_path, capsys):
    # --threads is read like every other flag: one line naming it, exit 2
    out = tmp_path / "x.csv"
    for text in ("abc", "2.5", "0"):
        assert main(["scan", "--threads", text, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: argument --threads: ")
        assert err.count("\n") == 1
    assert not out.exists()


def test_mc_rejects_dwell_beyond_poisson_sampler(tmp_path, capsys):
    # numpy's Poisson sampler refuses means above about 9.2e18; inf is not
    # a number the flag parses
    out = tmp_path / "mc.csv"
    for events, code, name in (("1e30", 3, "events_per_point"),
                               ("inf", 2, "--events-per-point")):
        assert main(["mc", "--seed", "1", "--events-per-point", events,
                     "--out", str(out)] + FAST) == code
        assert name in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_for_resolution_cap(tmp_path, capsys):
    # the budget counts open grating windows per field evaluation; a 400 m
    # plane-wave aperture opens 2.2e6, over the cap of 1e6
    out = tmp_path / "x.csv"
    assert main(["oracle", "--delta", "400", "--points", "3",
                 "--out", str(out)] + FAST) == 4
    assert capsys.readouterr().err.splitlines() == [
        "error: oracle resolution: 2.22222e+06 open windows in the "
        "aperture, cap is 1e+06"]
    assert not out.exists()


def test_exit_code_for_unwritable_output(tmp_path, capsys):
    assert main(["scan", "--out", str(tmp_path / "no" / "dir" / "x.csv")]
                + FAST) == 2


# one quick argv per subcommand, without --out
QUICK = {
    "scan": ["scan"] + FAST,
    "carpet": ["carpet", "--x-count", "8", "--z-count", "4"] + FAST,
    "mask": ["mask", "--width-px", "64", "--height-px", "8"],
    "mc": ["mc", "--seed", "7", "--events-per-point", "200"] + FAST,
    "oracle": ["oracle", "--points", "5"] + FAST,
    "analyze": ["analyze", "--scan-step", "24um", "--z-lo", "155mm",
                "--z-hi", "165mm", "--z-steps", "16"] + FAST,
}


@pytest.mark.parametrize("command", list(QUICK))
def test_threads_env_fallback(tmp_path, command):
    def run(name, *extra):
        return main(QUICK[command] + ["--out", str(tmp_path / name),
                                      *extra])

    assert run("a") == 0
    assert run("b", "--threads", "3") == 0
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
    assert run("c", "--threads", "0") == 2
    assert not (tmp_path / "c").exists()


def test_no_subcommand_imports_scipy(tmp_path):
    # scipy is a test dependency only: with its import made to fail, every
    # subcommand still runs
    script = textwrap.dedent(f"""
        import sys
        sys.modules["scipy"] = None
        import talbot_sim.cli
        out = {str(tmp_path)!r}
        for name, argv in {QUICK!r}.items():
            assert talbot_sim.cli.main(argv + ["--out", out + "/" + name]) == 0
    """)
    proc = subprocess.run([sys.executable, "-c", script], env=_package_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _package_env():
    # a fresh interpreter that imports the package under test
    src = str(Path(talbot_sim.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def test_reused_parsers_leave_no_state(tmp_path, capsys, monkeypatch):
    # one process's runs in a row, each against a fresh interpreter's: a
    # refused flag, --help, scan at two flag sets and the first again,
    # carpet and oracle
    runs = [["scan", "--no-such-flag"], ["--help"], QUICK["scan"],
            ["scan", "--f", "0.3", "--spectral-samples", "5",
             "--scan-step", "24um"], QUICK["scan"], QUICK["carpet"],
            QUICK["oracle"]]
    monkeypatch.setenv("COLUMNS", "80")  # the width --help wraps at
    built = []
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(None) or build_parser())
    cli._parser.cache_clear()
    for i, argv in enumerate(runs):
        writes = argv != ["--help"]
        paths = [tmp_path / f"{i}-in", tmp_path / f"{i}-fresh"]
        full = [argv + ["--out", str(path)] * writes for path in paths]
        try:
            code = main(full[0])
        except SystemExit as exit_:
            code = exit_.code
        stdout, stderr = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "talbot_sim.cli",
                                *full[1]],
                               env=_package_env(), capture_output=True,
                               timeout=120)
        assert (code, stdout.encode(), stderr.encode()) == (
            fresh.returncode, fresh.stdout, fresh.stderr), argv
        made = [path.exists() for path in paths]
        assert made == [writes and code == 0] * 2, argv
        if all(made):
            assert paths[0].read_bytes() == paths[1].read_bytes(), argv
    # the parser was built on the first call alone; build_parser itself
    # still builds anew
    assert built == [None]
    assert build_parser() is not build_parser()


def test_top_level_messages_name_every_subcommand(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0
    listing = capsys.readouterr().out.split("positional arguments:")[1]
    names = [ln.split()[0] for ln in listing.splitlines()
             if ln.startswith("    ") and not ln.startswith("     ")]
    assert names == list(QUICK)

    listed = "{" + ",".join(QUICK) + "}"
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    assert listed in capsys.readouterr().err

    with pytest.raises(SystemExit) as err:
        main(["bogus", "--out", "x.csv"])
    assert err.value.code == 2
    choices = capsys.readouterr().err.split("choose from")[1]
    assert re.findall(r"[a-z]+", choices) == list(QUICK)


@pytest.mark.parametrize("argv", [["oracle", "--points", "0"],
                                  ["carpet", "--x-count", "0"],
                                  ["carpet", "--z-count", "-3"]],
                         ids=["oracle-points", "carpet-x-count",
                              "carpet-z-count"])
def test_count_flags_reject_non_positive(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)] + FAST) == 2
    message = capsys.readouterr().err.splitlines()[-1]
    assert message.endswith(f"argument {argv[1]}: must be >= 1, "
                            f"got {argv[2]}")
    assert not out.exists()


def test_mc_requires_seed(tmp_path, capsys):
    assert main(["mc", "--out", str(tmp_path / "mc.csv")]) == 2


def test_mc_deterministic_and_labeled(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["mc", "--seed", "7", "--events-per-point", "200"] + FAST
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text(encoding="utf-8")
    assert "# seed = 7" in text
    assert "# rng: numpy.random.Philox" in text
    rows = _data_lines(a)
    assert rows[0] == "x_over_d,counts,error"
    counts = [float(r.split(",")[1]) for r in rows[1:]]
    errors = [float(r.split(",")[2]) for r in rows[1:]]
    assert errors == pytest.approx([c ** 0.5 for c in counts])
    c = tmp_path / "c.csv"
    assert main(["mc", "--seed", "8", "--events-per-point", "200",
                 "--out", str(c)] + FAST) == 0
    assert a.read_bytes() != c.read_bytes()


def test_mask_writes_valid_pgm(tmp_path):
    out = tmp_path / "mask.pgm"
    assert main(["mask", "--f", "0.4", "--out", str(out)]) == 0
    img = read_pgm(out)
    assert img.shape == (768, 1024)
    row = img[0]
    assert int(np.count_nonzero(row[:10])) == 4
    out2 = tmp_path / "small.pgm"
    assert main(["mask", "--f", "0.4", "--width-px", "64", "--height-px",
                 "8", "--gray-open", "200", "--out", str(out2)]) == 0
    img2 = read_pgm(out2)
    assert img2.shape == (8, 64)
    assert set(np.unique(img2)) == {0, 200}


def test_mask_rejects_period_off_the_pixel_grid(tmp_path, capsys):
    out = tmp_path / "mask.pgm"
    assert main(["mask", "--d", "100um", "--out", str(out)]) == 3
    assert "whole number of pixels" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("f", ["1e-3", "1e-17", "5e-324"])
def test_mask_reads_only_d_and_f(tmp_path, f):
    # an opening below one pixel leaves the mask all closed, however few
    # orders trunc = auto would keep for it: the mask never sums them
    out = tmp_path / "mask.pgm"
    assert main(["mask", "--f", f, "--width-px", "64", "--height-px", "8",
                 "--out", str(out)]) == 0
    assert set(np.unique(read_pgm(out))) == {0}


def test_carpet_matrix_layout(tmp_path):
    out = tmp_path / "carpet.csv"
    assert main(["carpet", "--x-count", "16", "--z-count", "8",
                 "--norm", "per-column-max-one", "--out", str(out)]
                + FAST) == 0
    rows = _data_lines(out)
    assert len(rows) == 1 + 8
    header = rows[0].split(",")
    assert header[0] == ""  # corner cell stays empty
    assert len(header) == 1 + 16
    xs = [float(v) for v in header[1:]]
    assert xs == sorted(xs)
    zs = [float(r.split(",")[0]) for r in rows[1:]]
    assert zs == sorted(zs)
    body = np.array([[float(v) for v in r.split(",")[1:]] for r in rows[1:]])
    assert body.shape == (8, 16)
    assert np.allclose(body.max(axis=0), 1.0, atol=1e-9)


def test_carpet_rejects_unknown_norm(tmp_path):
    assert main(["carpet", "--norm", "percent",
                 "--out", str(tmp_path / "c.csv")]) == 2


def test_oracle_reports_max_error(tmp_path, capsys):
    out = tmp_path / "oracle.csv"
    assert main(["oracle", "--points", "5", "--out", str(out)] + FAST) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("max_rel_err=")
    float(stdout.split("=", 1)[1])  # numeric payload
    rows = _data_lines(out)
    assert rows[0] == "x,analytic,oracle,relative_error"
    assert len(rows) == 1 + 5


@pytest.mark.parametrize("x_min, x_max, points", [("1mm", "0", "129"),
                                                  ("1mm", "1mm", "3")])
def test_oracle_refuses_a_window_that_does_not_increase(tmp_path, capsys,
                                                        x_min, x_max, points):
    out = tmp_path / "oracle.csv"
    assert main(["oracle", "--x-min", x_min, "--x-max", x_max, "--points",
                 points, "--out", str(out)] + FAST) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "x_min" in err[0] and "x_max" in err[0]
    assert not out.exists()
    # one probe needs no window
    assert main(["oracle", "--x-min", x_min, "--x-max", x_max, "--points",
                 "1", "--out", str(out)] + FAST) == 0


@pytest.mark.parametrize("window", [["--x-min=1mm", "--x-max=0"],
                                    ["--z-min=0.3", "--z-max=0.1"]])
def test_carpet_refuses_a_window_that_does_not_increase(tmp_path, capsys,
                                                        monkeypatch, window):
    # refused before the raster is computed, naming both keys
    def no_raster(*args, **kwargs):
        raise AssertionError("the raster was computed")

    monkeypatch.setattr(cli, "carpet", no_raster)
    out = tmp_path / "carpet.csv"
    assert main(["carpet", "--out", str(out)] + window) == 3
    err = capsys.readouterr().err.splitlines()
    keys = [flag[2:].split("=")[0].replace("-", "_") for flag in window]
    assert len(err) == 1 and all(key in err[0] for key in keys)
    assert not out.exists()


def test_oracle_with_no_open_width_is_a_domain_error(tmp_path, capsys):
    # f*d/2 underflows to 0 m: every window has zero width, the field is 0
    # and the two curves cannot be compared
    out = tmp_path / "oracle.csv"
    assert main(["oracle", "--f", "5e-324", "--points", "3",
                 "--out", str(out)] + FAST) == 3
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("delta, count", [("1e12", "5.55556e+15"),
                                          ("1e308", "over 1e308")])
def test_oracle_refuses_a_wide_aperture_at_once(tmp_path, delta, count):
    # d is below one ulp of W = 1e12 m, and (W + f*d/2)/d overflows at
    # W = 1e308 m; a fresh interpreter runs each under a timeout, so a run
    # that does not end fails
    out = tmp_path / "oracle.csv"
    proc = subprocess.run([sys.executable, "-m", "talbot_sim.cli", "oracle",
                           "--delta", delta, "--out", str(out)],
                          env=dict(_package_env(), PYTHONWARNINGS="error"),
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 4
    assert proc.stderr.splitlines() == [
        f"error: oracle resolution: {count} open windows in the aperture, "
        f"cap is 1e+06"]
    assert not out.exists()


# 1e17 x samples fit numpy's array length, but their 711 PiB are refused
# by malloc at once: the MemoryError exits 4 in numpy's one line
def test_refused_allocation_exits_4_in_one_line(tmp_path):
    out = tmp_path / "carpet.csv"
    proc = subprocess.run([sys.executable, "-m", "talbot_sim.cli", "carpet",
                           "--x-count", "100000000000000000",
                           "--out", str(out)],
                          env=dict(_package_env(), PYTHONWARNINGS="error"),
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 4
    assert proc.stderr.splitlines() == [
        "error: Unable to allocate 711. PiB for an array with shape "
        "(100000000000000000,) and data type float64"]
    assert not out.exists()


# a carpet of 1e7 values is computed in about 0.3 GiB of address space but
# formatted in about 0.9 GiB, so a child held to 0.5 GiB is refused while
# it forms its output, which it does before it opens the file; one BLAS
# thread keeps the child's start-up well inside the limit
@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="needs Linux's RLIMIT_AS")
def test_run_refused_while_forming_its_output_writes_no_file(tmp_path):
    import resource

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 29, 2 ** 29))

    out = tmp_path / "carpet.csv"
    proc = subprocess.run([sys.executable, "-m", "talbot_sim.cli", "carpet",
                           "--x-count", "10000", "--z-count", "1000",
                           "--trunc", "5", "--out", str(out)],
                          env=dict(_package_env(), PYTHONWARNINGS="error",
                                   OPENBLAS_NUM_THREADS="1"),
                          preexec_fn=limit_address_space,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 4
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: ")
    assert not out.exists()


# |u| reaches about 5e303 at x = 1e300 m, and u*u overflows; at 5e150 m
# and z = 2L, u*u is finite but a point source's phase k*x**2 is not
@pytest.mark.parametrize("x_max, flags", [("1e300", []),
                                          ("1e300", ["--z0=none"]),
                                          ("5e150", ["--z", "320mm"])])
def test_oracle_refuses_probes_whose_phase_overflows(tmp_path, capsys,
                                                     x_max, flags):
    out = tmp_path / "oracle.csv"
    assert main(["oracle", f"--x-max={x_max}", "--points", "3", "--trunc",
                 "5", "--out", str(out)] + flags) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        f"error: Fresnel phase overflows a double: |x| up to {float(x_max):g}")
    assert not out.exists()


def _window_read(path, command):
    """The echoed lambda0 and the first and last x of a carpet or oracle
    CSV."""
    lam = re.search(r"^# lambda0 = (.*)$",
                    path.read_text(encoding="utf-8"), re.M).group(1)
    rows = _data_lines(path)
    if command == "carpet":
        xs = rows[0].split(",")[1:]
    else:
        xs = [r.split(",")[0] for r in rows[1:]]
    return float(lam), float(xs[0]), float(xs[-1])


@pytest.mark.parametrize("command", ["carpet", "oracle"])
def test_window_flags_and_their_defaults(tmp_path, command):
    out = tmp_path / "x.csv"
    assert main(QUICK[command] + ["--out", str(out)]) == 0
    assert _window_read(out, command) == pytest.approx(
        (810e-9, -360e-6, 360e-6), rel=1e-12)
    assert main(QUICK[command] + ["--lambda0", "700nm", "--x-min=-100um",
                                  "--x-max", "200um", "--out", str(out)]) == 0
    assert _window_read(out, command) == pytest.approx(
        (700e-9, -100e-6, 200e-6), rel=1e-12)


def test_analyze_report(tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert main(["analyze", "--scan-step", "24um", "--z-lo", "155mm",
                 "--z-hi", "165mm", "--z-steps", "16",
                 "--out", str(out)] + FAST) == 0
    stdout = capsys.readouterr().out
    assert stdout == out.read_text(encoding="utf-8")
    report = {ln.split(" = ")[0]: ln.split(" = ")[1]
              for ln in stdout.splitlines()
              if " = " in ln and not ln.startswith("#")}
    assert set(report) == {"visibility", "fringe_fraction", "revival_mm"}
    assert 0.0 < float(report["visibility"]) <= 1.0
    assert float(report["revival_mm"]) == pytest.approx(160.0, abs=0.5)


@pytest.mark.parametrize("flags, window", [
    ([], (0.8 * 0.16, 1.3 * 0.16, 64)),
    (["--z-lo", "155mm", "--z-hi", "165mm", "--z-steps", "16"],
     (0.155, 0.165, 16)),
], ids=["defaults", "flags"])
def test_analyze_report_names_its_revival_window(capsys, flags, window):
    # the resolved search window ends the config echo, before the three
    # result lines
    assert main(["analyze", "--scan-step", "24um"] + flags + FAST) == 0
    lines = capsys.readouterr().out.splitlines()
    names, values = zip(*(ln[2:].split(" = ") for ln in lines[:-3]))
    assert names[-3:] == ("z_lo", "z_hi", "z_steps")
    values = values[-3:]
    assert (float(values[0]), float(values[1]), int(values[2])) == window


# the config keys each subcommand reads, restated from the README
_SCAN_READS = ("lambda0", "fwhm", "spectral_samples", "z0", "d", "f",
               "trunc", "z", "slit_width", "scan_start", "scan_end",
               "scan_step")
READ_KEYS = {
    "scan": _SCAN_READS,
    "carpet": ("lambda0", "z0", "d", "f", "trunc", "x_min", "x_max",
               "x_count", "z_min", "z_max", "z_count", "norm"),
    "mask": ("d", "f", "width_px", "height_px", "pixel_pitch", "gray_open",
             "gray_closed"),
    "mc": _SCAN_READS + ("seed", "events_per_point"),
    "oracle": ("lambda0", "z0", "delta", "d", "f", "trunc", "z", "x_min",
               "x_max", "points"),
    "analyze": _SCAN_READS + ("z_lo", "z_hi", "z_steps"),
}


@pytest.mark.parametrize("command", list(READ_KEYS))
def test_help_lists_exactly_the_keys_it_reads(capsys, command):
    with pytest.raises(SystemExit) as err:
        main([command, "--help"])
    assert err.value.code == 0
    text = capsys.readouterr().out
    listed = {key for key in CONFIG_KEYS
              if f"--{key.replace('_', '-')} VALUE" in text}
    assert listed == set(READ_KEYS[command])


@pytest.mark.parametrize("argv, flag", [
    (["carpet", "--fwhm", "0"], "--fwhm"),
    (["carpet", "--wavelength", "700nm"], "--wavelength"),
    (["oracle", "--scan-step", "6um"], "--scan-step"),
    (["mask", "--trunc", "25"], "--trunc"),
    (["scan", "--delta", "5mm"], "--delta"),
], ids=["carpet-fwhm", "carpet-wavelength", "oracle-scan-step", "mask-trunc",
        "scan-delta"])
def test_flags_a_subcommand_does_not_read_are_refused(tmp_path, capsys, argv,
                                                      flag):
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as err:
        main(argv + ["--out", str(out)])
    assert err.value.code == 2
    message = capsys.readouterr().err.splitlines()[-1]
    assert "unrecognized arguments" in message and flag in message
    assert not out.exists()


def test_config_keys_a_subcommand_does_not_read_are_ignored(tmp_path,
                                                            capsys):
    # one file serves every subcommand: a scan echo, with an even node
    # count that scan itself refuses, runs carpet, which echoes the five
    # run keys it reads and its own keys alone
    scan_csv = tmp_path / "scan.csv"
    assert main(["scan", "--out", str(scan_csv), "--lambda0", "700nm"]
                + FAST) == 0
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(_echoed_config(scan_csv).replace(
        "spectral_samples = 41", "spectral_samples = 2"), encoding="utf-8")
    out = tmp_path / "carpet.csv"
    assert main(["carpet", "--config", str(cfg), "--x-count", "8",
                 "--z-count", "4", "--out", str(out)]) == 0
    header = [ln for ln in out.read_text(encoding="utf-8").splitlines()
              if ln.startswith("#")]
    assert header == ["# lambda0 = 7e-07", "# z0 = none", "# d = 0.00036",
                      "# f = 0.1", "# trunc = 25", "# x_min = -0.00036",
                      "# x_max = 0.00036", "# x_count = 8",
                      "# z_min = 0.003702857142857144",
                      "# z_max = 0.3702857142857144", "# z_count = 4",
                      "# norm = raw"]
    # a value that does not parse is still an error, read or not
    cfg.write_text("fwhm = quick\n", encoding="utf-8")
    assert main(["carpet", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{cfg}:1:" in capsys.readouterr().err
