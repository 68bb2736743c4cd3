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
