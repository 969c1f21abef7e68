"""Command-line front end.

Subcommands: scan, carpet, mask, mc, oracle, analyze.  Values may come
from flags, a --config file, or the built-in baseline, in that order of
precedence.  Exit codes: 0 success, 2 configuration problem, 3 physics
domain error, 4 oracle window budget exceeded.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .analysis import (REVIVAL_STEPS, fringe_width_fraction,
                       revival_distance, visibility)
from .config import (CONFIG_KEYS, KEY_HELP, RunConfig, build_config,
                     echo_lines, parse_value, read_config_file)
from .csvio import (write_carpet_csv, write_mc_csv, write_oracle_csv,
                    write_scan_csv)
from .errors import ConfigError, DomainError, ResolutionCapError
from .grating import SlmProfile, render_slm_mask, write_pgm
from .model import NORM_COLUMN_MAX_ONE, NORM_RAW, talbot_length
from .montecarlo import RNG_ID, simulate_scan
from .oracle import DEFAULT_MAX_WINDOWS, fresnel_intensity
from .propagation import carpet, intensity, scan
from .units import fmt, fmt_exact, parse_length

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_RESOLUTION = 4

_UNITS_EPILOG = ("lengths accept nm, um, mm and m suffixes; a bare number "
                 "is meters.  Negative values need the --flag=value form, "
                 "for example --scan-start=-600um.  Flags override --config "
                 "keys, which override the built-in baseline.")


def _add_common(sub: argparse.ArgumentParser, keys, default_out) -> None:
    sub.add_argument("--config", metavar="PATH",
                     help="config file with 'key = value' lines; keys this "
                          "subcommand does not read are ignored")
    out_help = (f"output file (default: {default_out})" if default_out
                else "optional file to also receive the report")
    sub.add_argument("--out", metavar="PATH", default=default_out,
                     help=out_help)
    sub.add_argument("--threads", type=int, default=None, metavar="N",
                     help="thread count, checked to be >= 1 (default 1); "
                          "the computation runs on one thread and does not "
                          "depend on it")
    for key in keys:
        sub.add_argument("--" + key.replace("_", "-"), dest="key_" + key,
                         metavar="VALUE", help=KEY_HELP[key])


def _load_config(args: argparse.Namespace) -> RunConfig:
    """args.keys from the flags, else the --config file, else the baseline."""
    values = read_config_file(args.config) if args.config else {}
    values = {key: values[key] for key in args.keys if key in values}
    for key in args.keys:
        text = getattr(args, "key_" + key)
        if text is not None:
            values[key] = parse_value(key, text)
    return build_config(values)


def _positive_int(text: str) -> int:
    """argparse type for counts: an integer >= 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid integer {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _check_threads(args: argparse.Namespace) -> None:
    """Validate --threads; the count is not used."""
    if args.threads is not None and args.threads < 1:
        raise ConfigError("thread count must be >= 1")


def _add_window(sub: argparse.ArgumentParser, *helps: str) -> None:
    """--x-min and --x-max, which _window reads."""
    for flag, text, default in zip(("--x-min", "--x-max"), helps, ("-d", "d")):
        sub.add_argument(flag, metavar="VALUE",
                         help=f"{text} (default: {default})")


def _window(args: argparse.Namespace, cfg: RunConfig):
    """The x edges set by _add_window's flags."""
    return (parse_length(args.x_min) if args.x_min else -cfg.d,
            parse_length(args.x_max) if args.x_max else cfg.d)


def _scan_curve(cfg: RunConfig):
    """scan() of cfg over its spectrum."""
    return scan(cfg.source(), cfg.grating(), cfg.detection(),
                grid=cfg.spectrum())


def cmd_scan(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    pattern = _scan_curve(cfg)
    comments = echo_lines(cfg, args.keys) + [
        f"# magnification: {fmt_exact(pattern.meta['magnification'])}",
        f"# abscissa: {pattern.meta['abscissa']}",
    ]
    write_scan_csv(args.out, pattern, comments)
    return EXIT_OK


def cmd_carpet(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    lt = talbot_length(cfg.d, cfg.lambda0)
    z_lo = parse_length(args.z_min) if args.z_min else lt / 50.0
    z_hi = parse_length(args.z_max) if args.z_max else 2.0 * lt
    carp = carpet(cfg.source(), cfg.grating(),
                  np.linspace(*_window(args, cfg), args.x_count),
                  np.linspace(z_lo, z_hi, args.z_count), norm=args.norm)
    comments = echo_lines(cfg, args.keys) + [f"# norm: {args.norm}"]
    write_carpet_csv(args.out, carp, comments)
    return EXIT_OK


def cmd_mask(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    profile = SlmProfile(width_px=args.width_px, height_px=args.height_px,
                         pixel_pitch=parse_length(args.pixel_pitch),
                         gray_open=args.gray_open,
                         gray_closed=args.gray_closed)
    write_pgm(args.out, render_slm_mask(cfg.grating(), profile))
    return EXIT_OK


def cmd_mc(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    pattern = simulate_scan(_scan_curve(cfg), args.seed,
                            args.events_per_point)
    comments = echo_lines(cfg, args.keys) + [
        f"# seed: {args.seed}",
        f"# rng: {RNG_ID}",
        f"# events-per-point: {fmt_exact(args.events_per_point)}",
    ]
    write_mc_csv(args.out, pattern, comments)
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    source, grating = cfg.source(), cfg.grating()
    xs = np.linspace(*_window(args, cfg), args.points)
    analytic = intensity(xs, cfg.lambda0, source, grating, cfg.z)
    numeric = fresnel_intensity(xs, cfg.lambda0, source, grating, cfg.z,
                                max_windows=args.max_steps)
    max_err = write_oracle_csv(args.out, xs, analytic, numeric,
                               echo_lines(cfg, args.keys))
    print(f"max_rel_err={fmt(max_err)}")
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    pattern = _scan_curve(cfg)
    period = cfg.d * pattern.meta["magnification"]
    z_lo = parse_length(args.z_lo) if args.z_lo else 0.8 * cfg.z
    z_hi = parse_length(args.z_hi) if args.z_hi else 1.3 * cfg.z
    revival = revival_distance(cfg.source(), cfg.grating(), cfg.lambda0,
                               z_lo, z_hi, steps=args.z_steps)
    lines = echo_lines(cfg, args.keys) + [
        f"# z-lo: {fmt_exact(z_lo)}",
        f"# z-hi: {fmt_exact(z_hi)}",
        f"# z-steps: {args.z_steps}",
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


def _carpet_args(sub: argparse.ArgumentParser) -> None:
    _add_window(sub, "left edge of the x raster",
                "right edge of the x raster")
    sub.add_argument("--x-count", type=_positive_int, default=256,
                     metavar="N", help="x samples (default 256)")
    sub.add_argument("--z-min", metavar="VALUE",
                     help="nearest plane (default: d*d/lambda0/50)")
    sub.add_argument("--z-max", metavar="VALUE",
                     help="farthest plane (default: 2*d*d/lambda0)")
    sub.add_argument("--z-count", type=_positive_int, default=128,
                     metavar="N", help="z samples (default 128)")
    sub.add_argument("--norm", default=NORM_RAW,
                     choices=(NORM_RAW, NORM_COLUMN_MAX_ONE),
                     help="value scaling (default raw)")


def _mask_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--width-px", type=int, default=SlmProfile.width_px,
                     metavar="N", help="mask width in pixels "
                                       "(default %(default)s)")
    sub.add_argument("--height-px", type=int, default=SlmProfile.height_px,
                     metavar="N", help="mask height in pixels "
                                       "(default %(default)s)")
    # the bare-meter repr parses back to the default bit for bit
    sub.add_argument("--pixel-pitch", metavar="VALUE",
                     default=fmt_exact(SlmProfile.pixel_pitch),
                     help="pixel size (default %(default)s m)")
    sub.add_argument("--gray-open", type=int, default=SlmProfile.gray_open,
                     metavar="G", help="gray level of open columns "
                                       "(default %(default)s)")
    sub.add_argument("--gray-closed", type=int,
                     default=SlmProfile.gray_closed, metavar="G",
                     help="gray level of closed columns "
                          "(default %(default)s)")


def _mc_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, required=True, metavar="U64",
                     help="RNG seed; identical seeds give identical files")
    sub.add_argument("--events-per-point", type=float, default=1000.0,
                     metavar="MEAN",
                     help="expected counts at the curve peak (default 1000)")


def _oracle_args(sub: argparse.ArgumentParser) -> None:
    _add_window(sub, "first probe position", "last probe position")
    sub.add_argument("--points", type=_positive_int, default=129,
                     metavar="N", help="probe positions (default 129)")
    sub.add_argument("--max-steps", type=_positive_int,
                     default=DEFAULT_MAX_WINDOWS, metavar="N",
                     help="cap on the open grating windows integrated per "
                          f"field evaluation (default {DEFAULT_MAX_WINDOWS})")


def _analyze_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--z-lo", metavar="VALUE",
                     help="revival search start (default: 0.8*z)")
    sub.add_argument("--z-hi", metavar="VALUE",
                     help="revival search end (default: 1.3*z)")
    sub.add_argument("--z-steps", type=int, default=REVIVAL_STEPS,
                     metavar="N",
                     help="revival search grid size (default %(default)s)")


# name -> (help line, config keys it reads, default --out, builder of its
# own arguments, handler), in --help order
_COMMANDS = {
    "scan": ("slit-scan count-rate curve as CSV", CONFIG_KEYS, "scan.csv",
             None, cmd_scan),
    "carpet": ("monochromatic intensity raster as CSV",
               ("lambda0", "z0", "d", "f", "trunc"), "carpet.csv",
               _carpet_args, cmd_carpet),
    "mask": ("binary grating mask as a P5 PGM image", ("d", "f"), "mask.pgm",
             _mask_args, cmd_mask),
    "mc": ("seeded photon-count simulation as CSV", CONFIG_KEYS, "mc.csv",
           _mc_args, cmd_mc),
    "oracle": ("analytic intensity vs direct Fresnel integral, side by side",
               ("lambda0", "z0", "delta", "d", "f", "trunc", "z"),
               "oracle.csv", _oracle_args, cmd_oracle),
    "analyze": ("visibility, fringe width fraction and revival distance",
                CONFIG_KEYS, None, _analyze_args, cmd_analyze),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The talbot-sim parser with every subcommand, or with only the one
    named by command, which parses that subcommand's argv the same way."""
    parser = argparse.ArgumentParser(
        prog="talbot-sim",
        # fixed, so an error names all six subcommands whichever were built
        usage="%(prog)s [-h] {" + ",".join(_COMMANDS) + "} ...",
        description="Near-field grating diffraction simulator: slit scans, "
                    "intensity carpets, photon-count runs and validation.")
    subs = parser.add_subparsers(dest="command", required=True,
                                 prog="talbot-sim")
    for name in [command] if command else _COMMANDS:
        help_line, keys, default_out, add_args, handler = _COMMANDS[name]
        sub = subs.add_parser(name, epilog=_UNITS_EPILOG, help=help_line)
        _add_common(sub, keys, default_out)
        if add_args:
            add_args(sub)
        sub.set_defaults(func=handler, keys=keys)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # build only the subparser that runs: all six take about 3 ms, a large
    # share of a short job; --help and a missing or bad command get all six
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        _check_threads(args)
        return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ResolutionCapError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RESOLUTION
    except DomainError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
