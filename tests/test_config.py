"""Config files, value parsing, defaults, and the echo round trip."""

import math
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, reject
from hypothesis import strategies as st

from talbot_sim import (ConfigError, DomainError, RunConfig, read_config_file,
                        spectral_grid)
from talbot_sim.config import (CONFIG_KEYS, RUN_KEYS, echo_lines,
                               parse_value, resolve)
from talbot_sim.units import fmt, fmt_exact, parse_float, parse_int, \
    parse_length

from helpers import FWHM, LAMBDA0, Z0


def test_defaults_match_baseline():
    cfg = RunConfig()
    assert cfg.lambda0 == LAMBDA0
    assert cfg.fwhm == FWHM
    assert cfg.z0 == Z0
    assert cfg.d == 360e-6
    assert cfg.f == 0.1
    assert cfg.z == 160e-3
    assert cfg.slit_width == 115e-6
    assert cfg.scan_step == 12e-6
    assert cfg.delta is None and cfg.trunc is None
    # the thirteen run parameters, then the subcommands' own keys
    assert len(RUN_KEYS) == 13 and len(CONFIG_KEYS) == 31


def test_config_builds_model_objects():
    cfg = RunConfig()
    src = cfg.source()
    assert src.lambda0 == LAMBDA0
    assert src.z0 == Z0
    # unset aperture half-width resolves from the source distance
    assert src.delta == pytest.approx(0.5e-3 * Z0)
    # the spectral line under the config keys' own names
    assert src.fwhm == FWHM and src.spectral_samples == 41
    g = cfg.grating()
    assert g.d == 360e-6 and g.f == 0.1 and g.trunc == 80
    det = cfg.detection()
    assert det.z == 160e-3
    assert det.positions().size == 101


def test_override_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("lambda0 = 800nm\nf = 0.25\n", encoding="utf-8")
    cfg = RunConfig(**{**read_config_file(path), "lambda0": 850e-9})
    assert cfg.lambda0 == 850e-9  # flag beats file
    assert cfg.f == 0.25          # file beats default
    assert cfg.d == 360e-6        # default survives


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "\n"
        "d = 360 um\n"
        "z = 0.16   # trailing comment\n"
        "z0 = none\n"
        "trunc = 25\n"
        "delta = auto\n",
        encoding="utf-8")
    values = read_config_file(path)
    assert set(values) == {"d", "z", "z0", "trunc", "delta"}
    assert values["d"] == pytest.approx(360e-6, rel=1e-15)
    assert values["z"] == 0.16
    assert values["z0"] is None
    assert values["trunc"] == 25
    assert values["delta"] is None


@pytest.mark.parametrize("line, fragment", [
    ("bogus_key = 3", "bogus_key"),
    ("lambda0 810nm", "="),
    ("f = fast", "fast"),
    ("trunc = 2.5", "integer"),
    # a scan, mc or analyze echo written while the span was a key
    ("spectral_span = 3.0", "unknown config key 'spectral_span'"),
])
def test_config_file_diagnostics_carry_line_numbers(tmp_path, line, fragment):
    path = tmp_path / "run.cfg"
    path.write_text("d = 360um\n" + line + "\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        read_config_file(path)
    msg = str(err.value)
    assert ":2:" in msg
    assert fragment in msg


def test_config_file_that_is_not_utf8_names_its_line(tmp_path):
    # a Latin-1 byte in a comment: refused as text, not raised as a
    # UnicodeDecodeError
    path = tmp_path / "run.cfg"
    path.write_bytes(b"f = 0.3\n# caf\xe9\n")
    with pytest.raises(ConfigError, match=r":2: not UTF-8 text$"):
        read_config_file(path)


def test_config_file_rejects_duplicate_keys(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("f = 0.1\nf = 0.2\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="duplicate"):
        read_config_file(path)


def test_config_file_missing_path_is_config_error():
    with pytest.raises(ConfigError):
        read_config_file("/nonexistent/run.cfg")


def test_parse_value_key_specific_forms():
    assert parse_value("z0", "none") is None
    assert parse_value("z0", " None ") is None  # any case, padded
    assert parse_value("trunc", "AUTO") is None
    assert parse_value("z0", "2m") == 2.0
    assert parse_value("delta", "auto") is None
    assert parse_value("trunc", "auto") is None
    assert parse_value("trunc", "50") == 50
    assert parse_value("f", "0.3") == 0.3
    assert parse_value("scan_start", "-600um") == pytest.approx(-600e-6)
    with pytest.raises(ConfigError):
        parse_value("f", "0.3um")  # dimensionless key rejects units
    with pytest.raises(ConfigError):
        parse_value("nonsense", "1")


# positive and finite, with room for delta = 0.5e-3 * z0 to stay positive
_LENGTHS = st.floats(min_value=1e-300, max_value=1e300)
_EDGES = st.none() | st.floats(-1e300, 1e300)
_COUNTS = st.integers(1, 10 ** 6)


@st.composite
def _valid_values(draw):
    """A valid value for every config key, None standing for none/auto."""
    start, end = sorted(draw(st.lists(st.floats(-1e300, 1e300), min_size=2,
                                      max_size=2, unique=True)))
    f = draw(st.floats(0.0, 1.0, exclude_min=True))
    trunc = draw(st.none() | st.integers(0, 10 ** 6))
    # trunc = auto needs 2*ceil(8/f) + 1 orders that numpy can size
    # (test_grating_rejects_bad_arguments)
    assume(trunc is not None or 8.0 / f < 2 ** 58)
    return {
        "lambda0": draw(_LENGTHS),
        "fwhm": draw(st.just(0.0) | _LENGTHS),
        "spectral_samples": draw(st.integers(0, 100).map(lambda n: 2 * n + 1)),
        "z0": draw(st.none() | _LENGTHS),
        "delta": draw(st.none() | _LENGTHS),
        "d": draw(st.floats(1e-300, 1e154)),  # d*d must be finite
        "f": f,
        "trunc": trunc,
        "z": draw(_LENGTHS),
        "slit_width": draw(_LENGTHS),
        "scan_start": start,
        "scan_end": end,
        "scan_step": draw(_LENGTHS),
        "x_min": draw(_EDGES),
        "x_max": draw(_EDGES),
        "x_count": draw(_COUNTS),
        "z_min": draw(st.none() | _LENGTHS),
        "z_max": draw(st.none() | _LENGTHS),
        "z_count": draw(_COUNTS),
        "norm": draw(st.sampled_from(["raw", "per-column-max-one"])),
        "points": draw(_COUNTS),
        "z_lo": draw(st.none() | _LENGTHS),
        "z_hi": draw(st.none() | _LENGTHS),
        "z_steps": draw(st.integers(16, 10 ** 6)),
        "seed": draw(st.none() | st.integers(0, 2 ** 64 - 1)),
        "events_per_point": draw(st.floats(0.0, 1e18, exclude_min=True)),
        "width_px": draw(_COUNTS),
        "height_px": draw(_COUNTS),
        "pixel_pitch": draw(_LENGTHS),
        "gray_open": draw(st.integers(0, 255)),
        "gray_closed": draw(st.integers(0, 255)),
    }


@given(_valid_values())
@example({"lambda0": 8.11e-7, "f": 1 / 3, "z0": None, "scan_start": -5.43e-4})
def test_echo_lines_round_trip(overrides):
    # the echoed header must rebuild the exact same physics objects
    cfg = RunConfig(**overrides)
    lines = echo_lines(cfg)
    assert all(line.startswith("# ") for line in lines)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "echo.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(line[2:] for line in lines) + "\n")
        back = RunConfig(**read_config_file(path))
    assert back.source() == cfg.source()
    assert back.grating() == cfg.grating()
    assert back.detection() == cfg.detection()
    assert spectral_grid(back.source()) == spectral_grid(cfg.source())
    assert echo_lines(back) == lines


@given(_valid_values())
@example({"seed": 2 ** 64 - 1, "norm": "per-column-max-one",
          "x_min": -1e-4, "events_per_point": 200.0})
def test_every_key_round_trips_through_its_echo(overrides):
    # the subcommands' own keys too: a derived window edge echoes as its
    # value, an absent seed as none, and the norm as its word
    # a derived edge past the double range has no echo that parses back,
    # and resolve refuses it by name
    try:
        cfg = resolve(RunConfig(**overrides))
    except DomainError as err:
        assert str(err).startswith(("z_min = auto ", "z_max = auto "))
        reject()
    lines = echo_lines(cfg, CONFIG_KEYS)
    assert [line.split(" = ")[0] for line in lines] == [
        "# " + key for key in CONFIG_KEYS]
    assert lines[:len(RUN_KEYS)] == echo_lines(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "echo.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(line[2:] for line in lines) + "\n")
        assert RunConfig(**read_config_file(path)) == cfg


def test_echo_lines_resolve_auto_values():
    cfg = RunConfig()
    text = "\n".join(echo_lines(cfg))
    assert "z0 = none" not in text
    assert "delta = auto" not in text  # echoed as the resolved length
    assert "trunc = 80" in text
    plane = RunConfig(z0=None)
    assert "z0 = none" in "\n".join(echo_lines(plane))


def test_bad_model_values_surface_as_domain_errors():
    with pytest.raises(DomainError):
        RunConfig(f=0.0).grating()
    with pytest.raises(DomainError):
        RunConfig(scan_step=-1e-6).detection()


def test_parse_length_units():
    assert parse_length("810nm") == pytest.approx(810e-9)
    assert parse_length("360 um") == pytest.approx(360e-6)
    assert parse_length("360µm") == pytest.approx(360e-6)
    assert parse_length("0.16m") == pytest.approx(0.16)
    assert parse_length("12mm") == pytest.approx(12e-3)
    assert parse_length("8.1e-7") == pytest.approx(8.1e-7)
    assert parse_length("-600um") == pytest.approx(-600e-6)
    with pytest.raises(ConfigError):
        parse_length("12 parsec")
    with pytest.raises(ConfigError):
        parse_length("fast")
    # a number beyond the double range is not a length
    for text in ("1e400", "-1e400 mm", "1e400um"):
        with pytest.raises(ConfigError, match="out of range"):
            parse_length(text)


# decimal number text: sign, digits with an optional point, optional exponent
_DECIMALS = st.builds(
    lambda sign, whole, frac, exp: f"{sign}{whole}{frac}{exp}",
    st.sampled_from(["", "-", "+"]),
    st.integers(0, 10 ** 12).map(str),
    st.one_of(st.just(""), st.integers(0, 10 ** 9).map(lambda n: f".{n}")),
    st.one_of(st.just(""), st.integers(-30, 30).map(lambda n: f"e{n}")))
_POWERS = {"": 0, "nm": -9, "um": -6, "µm": -6, "mm": -3, "m": 0}


@given(_DECIMALS, st.sampled_from(sorted(_POWERS)))
@example("360", "um")
@example("810", "nm")
@example("115", "um")
@example("50", "nm")
def test_parse_length_is_the_nearest_double(text, unit):
    # the spelled length, scaled exactly and rounded once
    exact = Fraction(text) * Fraction(10) ** _POWERS[unit]
    assert parse_length(text + unit) == float(exact)


def test_parse_float_and_int():
    assert parse_float("0.3") == 0.3
    assert parse_float("1e-3") == 1e-3
    with pytest.raises(ConfigError):
        parse_float("0.3mm")
    assert parse_int("100") == 100
    with pytest.raises(ConfigError):
        parse_int("2.5")
    for parse in (parse_float, parse_int):
        with pytest.raises(ConfigError, match="out of range"):
            parse("1e400")


def test_fmt_round_trips():
    assert float(fmt_exact(1 / 3)) == 1 / 3
    assert float(fmt_exact(Z0)) == Z0
    assert float(fmt(0.16)) == pytest.approx(0.16, rel=1e-11)


@given(st.floats())
@example(0.0)
@example(-0.0)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@example(5e-324)
@example(1e22)
def test_fmt_is_the_row_template(v):
    # csvio formats a whole table in one operation through a bytes
    # "%.12g" template, which must spell every double exactly as fmt and
    # format(v, ".12g") do
    assert "%.12g" % v == fmt(v) == format(v, ".12g")
    assert (b"%.12g" % v).decode() == fmt(v)
