import os
import re

import pytest

from qmhd.config import RunConfig, canonical_text, parse_config, parse_config_text
from qmhd.errors import ParseError, ValidationError

MINIMAL = """
[grid]
points = 32
[regularization]
dt = 0.001
t_end = 0.01
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config_text(MINIMAL)
    assert cfg.dim == 1
    assert cfg.points == (32,)
    assert cfg.phys.gamma == pytest.approx(5.0 / 3.0)
    assert cfg.reg.picard_max_iters == 50
    assert cfg.benchmark == "density_bump"
    assert cfg.threads == 1


def test_canonical_echo_roundtrip_and_idempotent():
    cfg = parse_config_text(MINIMAL)
    echo = canonical_text(cfg)
    cfg2 = parse_config_text(echo)
    assert cfg2 == cfg
    assert canonical_text(cfg2) == echo


def test_unknown_key_is_hard_error_with_line():
    text = "[grid]\npoints = 32\ntypo_key = 3\n"
    with pytest.raises(ParseError) as err:
        parse_config_text(text)
    assert err.value.line == 3


def test_unknown_section_rejected():
    with pytest.raises(ParseError):
        parse_config_text("[nonsense]\nx = 1\n")


def test_key_outside_section_rejected():
    with pytest.raises(ParseError):
        parse_config_text("points = 32\n")


def test_duplicate_key_rejected():
    with pytest.raises(ParseError):
        parse_config_text("[grid]\npoints = 32\npoints = 64\n")


def test_gamma_constraint():
    text = MINIMAL + "[physics]\ngamma = 0.5\n"
    with pytest.raises(ValidationError) as err:
        parse_config_text(text)
    assert "gamma" in str(err.value)


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("physics", "gamma", "nan"),
        ("physics", "gamma_minus", "inf"),
        ("physics", "kappa", "nan"),
        ("physics", "c1", "inf"),
        ("physics", "nu_d0", "nan"),
        ("physics", "nu_a", "nan"),
        ("physics", "nu_threshold", "inf"),
        ("regularization", "epsilon", "nan"),
        ("regularization", "eta", "inf"),
        ("regularization", "delta", "nan"),
        ("regularization", "dt", "inf"),
        ("regularization", "dt", "nan"),
        ("regularization", "picard_tol", "nan"),
        ("regularization", "density_floor", "inf"),
    ],
)
def test_non_finite_parameters_rejected(section, key, value):
    with pytest.raises(ValidationError, match="must be finite") as err:
        parse_config_text(f"[{section}]\n{key} = {value}\n")
    assert err.value.line == 2


@pytest.mark.parametrize(
    "text, line",
    [
        ("[physics]\nkappa = 0.1\n\n# comment\ngamma = nan\n", 5),
        ("[regularization]\ndt = 0.001\nt_end = 0.002\nepsilon = -1\n", 4),
        ("[physics]\nnu_a_prime = 2.1\nkappa = 0.2\nnu_a = 2.9\n", 4),
    ],
    ids=["nan_after_a_valid_key", "negative_epsilon", "exponent_pair"],
)
def test_parameter_errors_name_their_line(text, line):
    # a parameter class's own check names the first key that breaks it
    with pytest.raises(ValidationError) as err:
        parse_config_text(text)
    assert err.value.line == line
    assert str(err.value).endswith(f"(line {line})")


@pytest.mark.parametrize("points, limit", [("8", 15), ("32", 63), ("8, 12", 75), ("8, 8, 10", 375)])
def test_modes_beyond_the_dealias_limit_rejected_with_line(points, limit):
    dim = len(points.split(","))
    text = f"[grid]\ndim = {dim}\npoints = {points}\nmodes = {limit + 1}\n"
    with pytest.raises(ValidationError) as err:
        parse_config_text(text)
    assert err.value.line == 4
    assert f"exceeds the {limit} dealias-resolved modes" in str(err.value)
    assert parse_config_text(text.replace(f"modes = {limit + 1}", f"modes = {limit}")).modes == limit


def test_points_replicated_across_dims():
    text = "[grid]\ndim = 2\npoints = 32\n[regularization]\ndt = 0.001\nt_end = 0.004\n"
    cfg = parse_config_text(text)
    assert cfg.points == (32, 32)


def test_points_dim_mismatch():
    text = "[grid]\ndim = 2\npoints = 32, 32, 32\n"
    with pytest.raises(ValidationError):
        parse_config_text(text)


def test_t_end_must_divide():
    text = "[grid]\npoints = 32\n[regularization]\ndt = 0.001\nt_end = 0.0015\n"
    with pytest.raises(ValidationError):
        parse_config_text(text)


@pytest.mark.parametrize(
    "every, message",
    [(0, "must be at least 1"), (4, "must divide the 6 steps to t_end")],
    ids=["zero", "misses_t_end"],
)
def test_diagnostics_cadence_must_divide_the_steps(every, message):
    # rows at a cadence that does not divide the steps would end short of t_end
    text = f"[regularization]\ndt = 0.001\nt_end = 0.006\n[output]\ndiagnostics_every = {every}\n"
    with pytest.raises(ValidationError, match=f"output.diagnostics_every: {message}") as err:
        parse_config_text(text)
    assert err.value.line == 5
    assert parse_config_text(text.replace(f"every = {every}", "every = 3")).diagnostics_every == 3


def test_missing_snapshot_paths_rejected(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = MINIMAL + "[initial]\nrho_path = nowhere.qmhd\nvelocity_path = a\nmagnetic_path = b\n"
    with pytest.raises(ValidationError):
        parse_config_text(text)


def test_partial_snapshot_paths_rejected():
    text = MINIMAL + "[initial]\nrho_path = only_this.qmhd\n"
    with pytest.raises(ValidationError):
        parse_config_text(text)


def test_bad_benchmark_rejected():
    text = MINIMAL + "[initial]\nbenchmark = vortex\n"
    with pytest.raises(ValidationError):
        parse_config_text(text)


def test_negative_seed_rejected_with_line():
    with pytest.raises(ValidationError) as err:
        parse_config_text(MINIMAL + "[determinism]\nseed = -1\n")
    assert err.value.line == 8


def test_unparsable_number_has_line():
    text = "[grid]\npoints = thirty\n"
    with pytest.raises(ParseError) as err:
        parse_config_text(text)
    assert err.value.line == 2


def test_comments_and_blank_lines_ok():
    text = "# header\n[grid]\npoints = 32  # inline\n\n[regularization]\ndt = 0.001\nt_end = 0.002\n"
    cfg = parse_config_text(text)
    assert cfg.points == (32,)


def test_parse_config_from_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(MINIMAL)
    cfg = parse_config(path)
    assert cfg.points == (32,)


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_key_listing_is_the_default_echo():
    with open(README) as fh:
        text = fh.read()
    block = re.search(r"All keys with their defaults:\n\n```\n(.*?)```", text, re.S).group(1)
    # drop comments and the lines that hold only a comment
    listed = [line.split("#", 1)[0].rstrip() for line in block.splitlines() if not line.strip().startswith("#")]
    assert parse_config_text("") == RunConfig()
    assert listed == [line.rstrip() for line in canonical_text(RunConfig()).splitlines()]
