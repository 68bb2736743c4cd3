"""Sectioned ``key = value`` input: run configs and sweep manifests.

Each format has one key table mapping ``[section] key`` to the value's type
and to the dataclass attribute it fills; a key's default is that
attribute's default.  ``read_sections`` reads either format: a syntax
error, an unknown section or key, a duplicate key or an unparsable value is
a ``ParseError`` with the file's line number.  ``build`` constructs the
dataclasses once from the values read, and every constraint is a
``ValidationError`` raised at parse time, with the line of the key that
breaks it when the file sets one.  Paths are read relative to the
working directory.  ``canonical_text`` renders a run config back with every
key explicit, and the echo is idempotent.
"""

from __future__ import annotations

import math
import operator
import os
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace

from .basis import max_mode_count
from .constitutive import PhysParams
from .errors import ParseError, ValidationError
from .experiments import BENCHMARK_NAMES, Coupling, SweepSpec
from .solver import RegParams


def ints(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.split(",") if part.strip())


def floats(raw: str) -> tuple[float, ...]:
    return tuple(float(part) for part in raw.split(",") if part.strip())


# section -> key -> (type, attribute path in RunConfig)
_SCHEMA: dict[str, dict[str, tuple[typing.Callable, str]]] = {
    "grid": {
        "dim": (int, "dim"),
        "points": (ints, "points"),
        "modes": (int, "modes"),
    },
    "physics": {
        "gamma": (float, "phys.gamma"),
        "gamma_minus": (float, "phys.gamma_minus"),
        "kappa": (float, "phys.kappa"),
        "c1": (float, "phys.c1"),
        "c2": (float, "phys.c2"),
        "nu_d0": (float, "phys.resistivity.d0"),
        "nu_a": (float, "phys.resistivity.a"),
        "nu_a_prime": (float, "phys.resistivity.a_prime"),
        "nu_threshold": (float, "phys.resistivity.threshold"),
    },
    "regularization": {
        "epsilon": (float, "reg.epsilon"),
        "eta": (float, "reg.eta"),
        "delta": (float, "reg.delta"),
        "s": (int, "reg.s"),
        "dt": (float, "reg.dt"),
        "t_end": (float, "t_end"),
        "picard_tol": (float, "reg.picard_tol"),
        "picard_max_iters": (int, "reg.picard_max_iters"),
        "density_floor": (float, "reg.density_floor"),
    },
    "initial": {
        "benchmark": (str, "benchmark"),
        "rho_path": (str, "rho_path"),
        "velocity_path": (str, "velocity_path"),
        "magnetic_path": (str, "magnetic_path"),
    },
    "output": {
        "directory": (str, "output_directory"),
        "snapshot_every": (int, "snapshot_every"),
        "diagnostics_every": (int, "diagnostics_every"),
    },
    "determinism": {
        "seed": (int, "seed"),
        "threads": (int, "threads"),
    },
}


def _under(prefix: str, keys: dict, drop: tuple[str, ...] = ()) -> dict:
    return {key: (kind, prefix + path) for key, (kind, path) in keys.items() if key not in drop}


# section -> key -> (type, attribute path in SweepManifest); the horizon is
# the [sweep] t_end, so [regularization] has none
_MANIFEST_SCHEMA: dict[str, dict[str, tuple[typing.Callable, str]]] = {
    "sweep": {
        "parameter": (str, "spec.parameter"),
        "values": (floats, "spec.values"),
        "benchmark": (str, "spec.benchmark"),
        "dim": (int, "spec.dim"),
        "points": (int, "spec.points"),
        "modes": (int, "spec.n_modes"),
        "t_end": (float, "spec.t_end"),
        "sample_every": (int, "spec.sample_every"),
        "seed": (int, "spec.seed"),
        "output": (str, "output"),
        "workers": (int, "workers"),
        "eta_coeff": (float, "eta_coeff"),
        "eta_exponent": (float, "eta_exponent"),
        "epsilon_coeff": (float, "epsilon_coeff"),
        "epsilon_exponent": (float, "epsilon_exponent"),
    },
    "physics": _under("spec.", _SCHEMA["physics"]),
    "regularization": _under("spec.", _SCHEMA["regularization"], drop=("t_end",)),
}


@dataclass(frozen=True)
class RunConfig:
    dim: int = 1
    points: tuple[int, ...] = (128,)
    modes: int = 9
    phys: PhysParams = field(default_factory=PhysParams)
    reg: RegParams = field(default_factory=RegParams)
    t_end: float = 0.1
    benchmark: str = "density_bump"
    rho_path: str = ""
    velocity_path: str = ""
    magnetic_path: str = ""
    output_directory: str = "out"
    snapshot_every: int = 0
    diagnostics_every: int = 1
    seed: int = 0
    threads: int = 1


@dataclass(frozen=True)
class SweepManifest:
    """A ladder, the directory it writes and the processes that run its
    rungs.  A ``<target>_coeff`` slaves eta or epsilon to the swept value."""

    spec: SweepSpec
    output: str
    workers: int = 1
    eta_coeff: float | None = None
    eta_exponent: float = 2.0
    epsilon_coeff: float | None = None
    epsilon_exponent: float = 2.0


def read_sections(text: str, schema) -> tuple[dict[str, object], dict[str, int]]:
    """Values and line numbers by attribute path."""
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    section = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = rawline.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in schema:
                raise ParseError(lineno, f"unknown section [{section}]")
            continue
        if "=" not in stripped:
            raise ParseError(lineno, f"expected 'key = value', got {stripped!r}")
        if section is None:
            raise ParseError(lineno, "key outside any [section]")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in schema[section]:
            raise ParseError(lineno, f"unknown key {key!r} in section [{section}]")
        kind, path = schema[section][key]
        if path in values:
            raise ParseError(lineno, f"duplicate key {section}.{key}")
        try:
            values[path] = kind(raw)
        except ValueError:
            raise ParseError(lineno, f"cannot parse {section}.{key} value {raw!r} as {kind.__name__}")
        lines[path] = lineno
    return values, lines


def build(cls, values: dict[str, object], lines: dict[str, int]):
    """Construct ``cls`` from values by attribute path.  Each nested
    dataclass is constructed once, from its given paths and its defaults.
    A constraint of the class itself fails with the line of the first of its
    keys, in file order, that breaks it."""
    kwargs: dict[str, object] = {}
    nested: dict[str, dict[str, object]] = {}
    nested_lines: dict[str, dict[str, int]] = {}
    for path, value in values.items():
        head, dot, rest = path.partition(".")
        if dot:
            nested.setdefault(head, {})[rest] = value
            nested_lines.setdefault(head, {})[rest] = lines[path]
        else:
            kwargs[head] = value
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        required = f.default is MISSING and f.default_factory is MISSING
        if f.name in nested or (required and is_dataclass(hints[f.name])):
            kwargs[f.name] = build(hints[f.name], nested.get(f.name, {}), nested_lines.get(f.name, {}))
        elif required and f.name not in kwargs:
            raise ValidationError(f.name, "must be set")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValidationError(cls.__name__, str(exc), _breaking_line(cls, kwargs, lines)) from None


def _breaking_line(cls, kwargs: dict[str, object], lines: dict[str, int]) -> int | None:
    """Line of the first key read from the file, in file order, whose value
    makes ``cls`` fail together with the keys before it."""
    trial = {name: value for name, value in kwargs.items() if name not in lines}
    for line, name in sorted((lines[name], name) for name in kwargs if name in lines):
        trial[name] = kwargs[name]
        try:
            cls(**trial)
        except TypeError:
            pass  # a required key is still to come
        except ValueError:
            return line
    return None


def _requirement(schema, lines: dict[str, int]):
    """``require(ok, key, constraint)`` raises a ValidationError naming the
    key and, when the file sets it, its line."""
    where = {key: (f"{section}.{key}", path) for section, keys in schema.items() for key, (_, path) in keys.items()}

    def require(ok: bool, key: str, constraint: str) -> None:
        if not ok:
            name, path = where[key]
            raise ValidationError(name, constraint, lines.get(path))

    return require


def _check_shared(require, dim: int, shape: tuple, modes: int, benchmark: str | None, t_end: float, dt: float,
                  seed: int) -> int:
    """The rules a run config and a sweep manifest share; ``benchmark`` is
    None when snapshots give the initial data.  Returns the steps to t_end."""
    require(dim in (1, 2, 3), "dim", "must be 1, 2 or 3")
    require(len(shape) == dim, "points", f"need {dim} axis sizes (or one applied to all)")
    require(all(n >= 8 and n % 2 == 0 for n in shape), "points", "each axis needs an even count >= 8")
    require(modes >= 1, "modes", "need at least one velocity mode")
    limit = max_mode_count(shape)
    require(modes <= limit, "modes", f"exceeds the {limit} dealias-resolved modes on this grid")
    if benchmark is not None:
        require(benchmark in BENCHMARK_NAMES, "benchmark", f"must be one of {', '.join(BENCHMARK_NAMES)}")
    require(0 <= t_end < math.inf, "t_end", "must be finite and nonnegative")
    steps = t_end / dt
    require(abs(steps - round(steps)) <= 1e-8 * max(steps, 1.0), "t_end", "must be an integer number of dt steps")
    require(seed >= 0, "seed", "must be nonnegative")
    return round(steps)


_SNAPSHOT_PATHS = ("rho_path", "velocity_path", "magnetic_path")


def parse_config_text(text: str) -> RunConfig:
    values, lines = read_sections(text, _SCHEMA)
    config = build(RunConfig, values, lines)
    require = _requirement(_SCHEMA, lines)
    points = config.points * config.dim if len(config.points) == 1 and config.dim > 1 else config.points
    given = [p for p in _SNAPSHOT_PATHS if getattr(config, p)]
    benchmark = None if given else config.benchmark
    steps = _check_shared(require, config.dim, points, config.modes, benchmark, config.t_end, config.reg.dt, config.seed)
    if given:
        for p in _SNAPSHOT_PATHS:
            require(p in given, p, "snapshot initial data needs all three paths")
        for p in given:
            require(os.path.exists(getattr(config, p)), p, f"file not found: {getattr(config, p)}")
    require(config.snapshot_every >= 0, "snapshot_every", "must be nonnegative")
    require(config.diagnostics_every >= 1, "diagnostics_every", "must be at least 1")
    # snapshot initial data start at their own time, so ``qmhd run`` checks their cadence
    require(bool(given) or steps % config.diagnostics_every == 0, "diagnostics_every", f"must divide the {steps} steps to t_end")
    require(config.threads >= 1, "threads", "must be at least 1")
    return replace(config, points=points, benchmark=benchmark or "")


def parse_config(path) -> RunConfig:
    with open(path, "r") as fh:
        return parse_config_text(fh.read())


def parse_manifest_text(text: str) -> SweepManifest:
    values, lines = read_sections(text, _MANIFEST_SCHEMA)
    manifest = build(SweepManifest, values, lines)
    require = _requirement(_MANIFEST_SCHEMA, lines)
    spec = manifest.spec
    shape = (spec.points,) * max(spec.dim, 0)
    steps = _check_shared(require, spec.dim, shape, spec.n_modes, spec.benchmark, spec.t_end, spec.reg.dt, spec.seed)
    if spec.parameter == "n":
        limit = max_mode_count(shape)
        require(max(spec.values) <= limit, "values", f"mode counts exceed the {limit} dealias-resolved modes on this grid")
    require(spec.sample_every >= 1, "sample_every", "must be at least 1")
    require(steps % spec.sample_every == 0, "sample_every", f"must divide the {steps} steps to t_end")
    require(manifest.workers >= 1, "workers", "must be at least 1")
    rules = (
        ("eta", manifest.eta_coeff, manifest.eta_exponent),
        ("epsilon", manifest.epsilon_coeff, manifest.epsilon_exponent),
    )
    for target, coeff, exponent in rules:
        require(coeff is None or math.isfinite(coeff), f"{target}_coeff", "must be finite")
        require(math.isfinite(exponent), f"{target}_exponent", "must be finite")
    couplings = tuple(Coupling(target, coeff, exponent) for target, coeff, exponent in rules if coeff is not None)
    return replace(manifest, spec=replace(spec, couplings=couplings))


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def canonical_text(config: RunConfig) -> str:
    """Render a config with every key explicit; echo of echo is identical."""
    chunks = []
    for section, keys in _SCHEMA.items():
        chunks.append(f"[{section}]")
        chunks += [f"{key} = {_fmt(operator.attrgetter(path)(config))}" for key, (_, path) in keys.items()]
        chunks.append("")
    return "\n".join(chunks)
