"""Run configuration: a flat sectioned ``key = value`` text format.

Unknown sections or keys are hard errors with line numbers; every numeric
constraint is enforced at parse time.  ``canonical_text`` renders a config
back with all defaults filled in, and the echo is idempotent.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .constitutive import PhysParams, ResistivityParams
from .errors import ParseError, ValidationError
from .solver import RegParams

_INT = "int"
_FLOAT = "float"
_STR = "str"
_INTS = "ints"

# section -> key -> (type, default); None default means required
_SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "grid": {
        "dim": (_INT, 1),
        "points": (_INTS, (128,)),
        "modes": (_INT, 9),
    },
    "physics": {
        "gamma": (_FLOAT, 5.0 / 3.0),
        "gamma_minus": (_FLOAT, 4.0),
        "kappa": (_FLOAT, 0.0),
        "c1": (_FLOAT, 1.0),
        "c2": (_FLOAT, 1.0),
        "nu_d0": (_FLOAT, 1.0),
        "nu_a": (_FLOAT, 2.0),
        "nu_a_prime": (_FLOAT, 2.5),
        "nu_threshold": (_FLOAT, 1.0),
    },
    "regularization": {
        "epsilon": (_FLOAT, 0.0),
        "eta": (_FLOAT, 0.0),
        "delta": (_FLOAT, 0.0),
        "s": (_INT, 1),
        "dt": (_FLOAT, 1e-3),
        "t_end": (_FLOAT, 0.1),
        "picard_tol": (_FLOAT, 1e-10),
        "picard_max_iters": (_INT, 50),
        "density_floor": (_FLOAT, 1e-8),
    },
    "initial": {
        "benchmark": (_STR, "density_bump"),
        "rho_path": (_STR, ""),
        "velocity_path": (_STR, ""),
        "magnetic_path": (_STR, ""),
    },
    "output": {
        "directory": (_STR, "out"),
        "snapshot_every": (_INT, 0),
        "diagnostics_every": (_INT, 1),
    },
    "determinism": {
        "seed": (_INT, 0),
        "threads": (_INT, 1),
    },
}

_SECTION_ORDER = ("grid", "physics", "regularization", "initial", "output", "determinism")


@dataclass(frozen=True)
class RunConfig:
    dim: int
    points: tuple[int, ...]
    modes: int
    phys: PhysParams
    reg: RegParams
    t_end: float
    benchmark: str
    rho_path: str
    velocity_path: str
    magnetic_path: str
    output_directory: str
    snapshot_every: int
    diagnostics_every: int
    seed: int
    threads: int


def _coerce(section: str, key: str, raw: str, line: int):
    kind, _ = _SCHEMA[section][key]
    try:
        if kind == _INT:
            return int(raw)
        if kind == _FLOAT:
            return float(raw)
        if kind == _INTS:
            return tuple(int(part.strip()) for part in raw.split(",") if part.strip())
        return raw
    except ValueError:
        raise ParseError(line, f"cannot parse {section}.{key} value {raw!r} as {kind}")


def _read_pairs(text: str):
    """Yield (section, key, value, line) with syntax errors located."""
    section = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = rawline.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in _SCHEMA:
                raise ParseError(lineno, f"unknown section [{section}]")
            continue
        if "=" not in stripped:
            raise ParseError(lineno, f"expected 'key = value', got {stripped!r}")
        if section is None:
            raise ParseError(lineno, "key outside any [section]")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _SCHEMA[section]:
            raise ParseError(lineno, f"unknown key {key!r} in section [{section}]")
        yield section, key, raw, lineno


def parse_config_text(text: str, base_dir: str = ".") -> RunConfig:
    values: dict[tuple[str, str], object] = {}
    lines: dict[tuple[str, str], int] = {}
    for section, key, raw, lineno in _read_pairs(text):
        if (section, key) in values:
            raise ParseError(lineno, f"duplicate key {section}.{key}")
        values[(section, key)] = _coerce(section, key, raw, lineno)
        lines[(section, key)] = lineno

    def get(section: str, key: str):
        if (section, key) in values:
            return values[(section, key)]
        return _SCHEMA[section][key][1]

    def where(section: str, key: str):
        return lines.get((section, key))

    dim = get("grid", "dim")
    if dim not in (1, 2, 3):
        raise ValidationError("grid.dim", "must be 1, 2 or 3", where("grid", "dim"))
    points = get("grid", "points")
    if len(points) == 1 and dim > 1:
        points = points * dim
    if len(points) != dim:
        raise ValidationError(
            "grid.points", f"need {dim} axis sizes (or one applied to all)", where("grid", "points")
        )
    for n in points:
        if n < 8 or n % 2:
            raise ValidationError("grid.points", "each axis needs an even count >= 8", where("grid", "points"))
    modes = get("grid", "modes")
    if modes < 1:
        raise ValidationError("grid.modes", "need at least one velocity mode", where("grid", "modes"))

    try:
        resistivity = ResistivityParams(
            d0=get("physics", "nu_d0"),
            a=get("physics", "nu_a"),
            a_prime=get("physics", "nu_a_prime"),
            threshold=get("physics", "nu_threshold"),
        )
        phys = PhysParams(
            gamma=get("physics", "gamma"),
            gamma_minus=get("physics", "gamma_minus"),
            kappa=get("physics", "kappa"),
            c1=get("physics", "c1"),
            c2=get("physics", "c2"),
            resistivity=resistivity,
        )
    except ValueError as exc:
        raise ValidationError("physics", str(exc))

    try:
        reg = RegParams(
            epsilon=get("regularization", "epsilon"),
            eta=get("regularization", "eta"),
            delta=get("regularization", "delta"),
            s=get("regularization", "s"),
            dt=get("regularization", "dt"),
            picard_tol=get("regularization", "picard_tol"),
            picard_max_iters=get("regularization", "picard_max_iters"),
            density_floor=get("regularization", "density_floor"),
        )
    except ValueError as exc:
        raise ValidationError("regularization", str(exc))

    t_end = get("regularization", "t_end")
    if t_end < 0:
        raise ValidationError("regularization.t_end", "must be nonnegative", where("regularization", "t_end"))
    steps = t_end / reg.dt
    if abs(steps - round(steps)) > 1e-8 * max(steps, 1.0):
        raise ValidationError(
            "regularization.t_end", "must be an integer number of dt steps", where("regularization", "t_end")
        )

    benchmark = get("initial", "benchmark")
    paths = {k: get("initial", k) for k in ("rho_path", "velocity_path", "magnetic_path")}
    given = [k for k, v in paths.items() if v]
    if given and len(given) != 3:
        raise ValidationError("initial", "snapshot initial data needs all three paths")
    if given:
        benchmark = ""
        for k in given:
            resolved = os.path.join(base_dir, paths[k])
            if not os.path.exists(resolved):
                raise ValidationError(f"initial.{k}", f"file not found: {paths[k]}", where("initial", k))
    elif benchmark not in ("single_mode", "density_bump", "random_smooth"):
        raise ValidationError(
            "initial.benchmark",
            "must be one of single_mode, density_bump, random_smooth",
            where("initial", "benchmark"),
        )

    snapshot_every = get("output", "snapshot_every")
    diagnostics_every = get("output", "diagnostics_every")
    if snapshot_every < 0 or diagnostics_every < 0:
        raise ValidationError("output", "cadences must be nonnegative")
    seed = get("determinism", "seed")
    threads = get("determinism", "threads")
    if threads < 1:
        raise ValidationError("determinism.threads", "must be at least 1", where("determinism", "threads"))

    return RunConfig(
        dim=dim,
        points=tuple(points),
        modes=modes,
        phys=phys,
        reg=reg,
        t_end=t_end,
        benchmark=benchmark,
        rho_path=paths["rho_path"],
        velocity_path=paths["velocity_path"],
        magnetic_path=paths["magnetic_path"],
        output_directory=get("output", "directory"),
        snapshot_every=snapshot_every,
        diagnostics_every=diagnostics_every,
        seed=seed,
        threads=threads,
    )


def parse_config(path) -> RunConfig:
    with open(path, "r") as fh:
        text = fh.read()
    return parse_config_text(text, base_dir=os.path.dirname(os.path.abspath(path)))


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def canonical_text(config: RunConfig) -> str:
    """Render a config with every key explicit; echo of echo is identical."""
    r = config.phys.resistivity
    data = {
        "grid": {"dim": config.dim, "points": config.points, "modes": config.modes},
        "physics": {
            "gamma": config.phys.gamma,
            "gamma_minus": config.phys.gamma_minus,
            "kappa": config.phys.kappa,
            "c1": config.phys.c1,
            "c2": config.phys.c2,
            "nu_d0": r.d0,
            "nu_a": r.a,
            "nu_a_prime": r.a_prime,
            "nu_threshold": r.threshold,
        },
        "regularization": {
            "epsilon": config.reg.epsilon,
            "eta": config.reg.eta,
            "delta": config.reg.delta,
            "s": config.reg.s,
            "dt": config.reg.dt,
            "t_end": config.t_end,
            "picard_tol": config.reg.picard_tol,
            "picard_max_iters": config.reg.picard_max_iters,
            "density_floor": config.reg.density_floor,
        },
        "initial": {
            "benchmark": config.benchmark,
            "rho_path": config.rho_path,
            "velocity_path": config.velocity_path,
            "magnetic_path": config.magnetic_path,
        },
        "output": {
            "directory": config.output_directory,
            "snapshot_every": config.snapshot_every,
            "diagnostics_every": config.diagnostics_every,
        },
        "determinism": {"seed": config.seed, "threads": config.threads},
    }
    chunks = []
    for section in _SECTION_ORDER:
        chunks.append(f"[{section}]")
        for key in _SCHEMA[section]:
            chunks.append(f"{key} = {_fmt(data[section][key])}")
        chunks.append("")
    return "\n".join(chunks)
