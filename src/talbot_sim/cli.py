"""Command-line front end.

Subcommands: scan, carpet, mask, mc, oracle, analyze.  Values may come
from flags, a --config file, or the built-in baseline, in that order of
precedence.  Exit codes: 0 success, 2 configuration or I/O problem, 3
physics domain error, 4 oracle window budget exceeded or an allocation
refused.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .analysis import fringe_width_fraction, revival_distance, visibility
from .config import (KEY_HELP, RUN_KEYS, RunConfig, echo_lines, parse_value,
                     read_config_file, resolve)
from .csvio import (write_carpet_csv, write_mc_csv, write_oracle_csv,
                    write_scan_csv)
from .errors import ConfigError, DomainError, ResolutionCapError
from .grating import render_slm_mask, write_pgm
from .model import GratingSpec, array_length
from .montecarlo import RNG_ID, simulate_scan
from .oracle import fresnel_intensity
from .propagation import carpet, intensity, scan
from .units import fmt, fmt_exact, parse_int

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_RESOLUTION = 4

_UNITS_EPILOG = ("lengths accept nm, um, mm and m suffixes; a bare number "
                 "is meters.  Negative values need the --flag=value form, "
                 "for example --scan-start=-600um.  Flags override --config "
                 "keys, which override the built-in baseline.")


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _add_common(sub: argparse.ArgumentParser, keys, default_out) -> None:
    sub.add_argument("--config", metavar="PATH",
                     help="config file with 'key = value' lines; keys this "
                          "subcommand does not read are ignored")
    out_help = (f"output file (default: {default_out})" if default_out
                else "optional file to also receive the report")
    sub.add_argument("--out", metavar="PATH", default=default_out,
                     help=out_help)
    sub.add_argument("--threads", metavar="N",
                     help="thread count, checked to be >= 1 (default 1); "
                          "the computation runs on one thread and does not "
                          "depend on it")
    for key in keys:
        sub.add_argument(_flag(key), dest="key_" + key, metavar="VALUE",
                         help=KEY_HELP[key])


def _load_config(args: argparse.Namespace) -> RunConfig:
    """args.keys from the flags, else the --config file, else the baseline,
    with the derived defaults resolved."""
    values = read_config_file(args.config) if args.config else {}
    values = {key: values[key] for key in args.keys if key in values}
    for key in args.keys:
        text = getattr(args, "key_" + key)
        if text is not None:
            try:
                values[key] = parse_value(key, text)
            except ConfigError as err:
                raise ConfigError(f"argument {_flag(key)}: {err}") from None
    return resolve(RunConfig(**values), args.keys)


def _check_threads(args: argparse.Namespace) -> None:
    """Validate --threads as the flags of keys are; the count is not used."""
    try:
        if args.threads is not None and parse_int(args.threads) < 1:
            raise ConfigError("thread count must be >= 1")
    except ConfigError as err:
        raise ConfigError(f"argument --threads: {err}") from None


def _grid(cfg: RunConfig, lo: str, hi: str, count: int, what: str):
    start, stop = getattr(cfg, lo), getattr(cfg, hi)
    if count >= 2 and not start < stop:
        raise DomainError(f"{lo} = {fmt(start)} m must be below {hi} = "
                          f"{fmt(stop)} m for {count} {what}")
    if not math.isfinite(stop - start):
        raise DomainError(f"{lo} = {fmt(start)} m to {hi} = {fmt(stop)} m "
                          f"is wider than a double holds")
    return np.linspace(start, stop, array_length(count, what))


def _scan_curve(cfg: RunConfig):
    return scan(cfg.source(), cfg.grating(), cfg.detection())


def cmd_scan(cfg: RunConfig, args: argparse.Namespace) -> int:
    pattern = _scan_curve(cfg)
    comments = echo_lines(cfg, args.keys) + [
        f"# magnification: {fmt_exact(pattern.meta['magnification'])}",
        f"# abscissa: {pattern.meta['abscissa']}",
    ]
    write_scan_csv(args.out, pattern, comments)
    return EXIT_OK


def cmd_carpet(cfg: RunConfig, args: argparse.Namespace) -> int:
    carp = carpet(cfg.source(), cfg.grating(),
                  _grid(cfg, "x_min", "x_max", cfg.x_count, "x samples"),
                  _grid(cfg, "z_min", "z_max", cfg.z_count, "z samples"),
                  norm=cfg.norm)
    write_carpet_csv(args.out, carp, echo_lines(cfg, args.keys))
    return EXIT_OK


def cmd_mask(cfg: RunConfig, args: argparse.Namespace) -> int:
    # render_slm_mask reads only d and f; trunc 0 spares the grating the
    # order count that trunc = auto would size, and refuse, from f
    grating = GratingSpec(d=cfg.d, f=cfg.f, trunc=0)
    write_pgm(args.out, render_slm_mask(grating, cfg.slm()))
    return EXIT_OK


def cmd_mc(cfg: RunConfig, args: argparse.Namespace) -> int:
    if cfg.seed is None:
        raise ConfigError("mc needs a seed (--seed, or seed in --config)")
    pattern = simulate_scan(_scan_curve(cfg), cfg.seed, cfg.events_per_point)
    comments = echo_lines(cfg, args.keys) + [f"# rng: {RNG_ID}"]
    write_mc_csv(args.out, pattern, comments)
    return EXIT_OK


def cmd_oracle(cfg: RunConfig, args: argparse.Namespace) -> int:
    source, grating = cfg.source(), cfg.grating()
    xs = _grid(cfg, "x_min", "x_max", cfg.points, "probe positions")
    analytic = intensity(xs, cfg.lambda0, source, grating, cfg.z)
    numeric = fresnel_intensity(xs, cfg.lambda0, source, grating, cfg.z)
    max_err = write_oracle_csv(args.out, xs, analytic, numeric,
                               echo_lines(cfg, args.keys))
    print(f"max_rel_err={fmt(max_err)}")
    return EXIT_OK


def cmd_analyze(cfg: RunConfig, args: argparse.Namespace) -> int:
    pattern = _scan_curve(cfg)
    period = cfg.d * pattern.meta["magnification"]
    revival = revival_distance(cfg.source(), cfg.grating(), cfg.z_lo,
                               cfg.z_hi)
    lines = echo_lines(cfg, args.keys) + [
        f"visibility = {fmt(visibility(pattern))}",
        f"fringe_fraction = {fmt(fringe_width_fraction(pattern, period))}",
        f"revival_mm = {fmt(revival * 1e3)}",
    ]
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report)
    return EXIT_OK


# the run keys but delta, which only the oracle's aperture reads
_SCAN = tuple(key for key in RUN_KEYS if key != "delta")

# name -> (help line, config keys it reads in echo order, default --out,
# handler), in --help order
_COMMANDS = {
    "scan": ("slit-scan count-rate curve as CSV", _SCAN, "scan.csv",
             cmd_scan),
    "carpet": ("monochromatic intensity raster as CSV",
               ("lambda0", "z0", "d", "f", "trunc", "x_min", "x_max",
                "x_count", "z_min", "z_max", "z_count", "norm"),
               "carpet.csv", cmd_carpet),
    "mask": ("binary grating mask as a P5 PGM image",
             ("d", "f", "width_px", "height_px", "pixel_pitch", "gray_open",
              "gray_closed"), "mask.pgm", cmd_mask),
    "mc": ("seeded photon-count simulation as CSV",
           _SCAN + ("seed", "events_per_point"), "mc.csv", cmd_mc),
    "oracle": ("analytic intensity vs direct Fresnel integral, side by side",
               ("lambda0", "z0", "delta", "d", "f", "trunc", "z", "x_min",
                "x_max", "points"), "oracle.csv", cmd_oracle),
    "analyze": ("visibility, fringe width fraction and revival distance",
                _SCAN + ("z_lo", "z_hi", "z_steps"), None, cmd_analyze),
}


def build_parser() -> argparse.ArgumentParser:
    """The talbot-sim parser with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="talbot-sim",
        description="Near-field grating diffraction simulator: slit scans, "
                    "intensity carpets, photon-count runs and validation.")
    subs = parser.add_subparsers(dest="command", required=True,
                                 prog="talbot-sim")
    for name, (help_line, keys, default_out, handler) in _COMMANDS.items():
        sub = subs.add_parser(name, epilog=_UNITS_EPILOG, help=help_line)
        _add_common(sub, keys, default_out)
        sub.set_defaults(func=handler, keys=keys)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on first use and kept for the process:
    parse_args leaves a parser as it found it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_threads(args)
        return args.func(_load_config(args), args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ResolutionCapError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RESOLUTION
    except MemoryError as err:
        # numpy's names the size it could not allocate; a bare one is empty
        print(f"error: {str(err) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOLUTION
    except DomainError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
