"""The four workloads: their inputs, made from the seed, and their output checks.

Every workload shares the baseline physics kappa=0.1, epsilon=1e-2,
eta=1e-3, delta=1e-4, s=1, dt=1e-3, so every branch of
``momentum_residual`` runs.  The seed reaches qmhd only through the
generated config (``[determinism] seed``), the sweep manifest (``seed``) or,
for the library workload, the ``seed`` argument of ``benchmark_state``.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

KAPPA = 0.1
REG = {"epsilon": 1e-2, "eta": 1e-3, "delta": 1e-4, "s": 1, "dt": 1e-3}
DEFAULT_SEED = 0

# output-check tolerances (also stated in BENCHMARK.json)
MASS_DRIFT_TOL = 1e-10  # relative to the first diagnostics row
DIV_B_TOL = 1e-12  # absolute, per diagnostics row
REFERENCE_TOL = 1e-6  # relative L2 of each final snapshot, default seed
# stored references keep the rfftn coefficients above this share of the
# largest; make_references.py asserts the dropped tail is below 1e-9
REFERENCE_CUTOFF = 1e-13

SNAPSHOT_HEADER = struct.Struct("<4sII3IId28x")
FINAL_FIELDS = ("rho", "velocity", "magnetic")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "run", "sweep" or "identities"
    dim: int
    points: int
    modes: int
    benchmark: str
    steps: int  # per run, or per rung for the sweep
    diagnostics_every: int = 1
    snapshot_every: int = 0
    ladder: tuple = ()

    @property
    def planned_steps(self) -> int:
        return self.steps * (len(self.ladder) if self.kind == "sweep" else 1)

    @property
    def t_end(self) -> float:
        return round(self.steps * REG["dt"], 12)

    def prepare(self, workdir: str, seed: int) -> None:
        """Write the inputs of one run into ``workdir``."""
        out = os.path.join(workdir, "out")
        spec = {"kind": self.kind, "seed": seed}
        if self.kind == "run":
            spec["input"] = os.path.join(workdir, "run.cfg")
            _write(spec["input"], self._config(out, seed))
        elif self.kind == "sweep":
            spec["input"] = os.path.join(workdir, "sweep.manifest")
            _write(spec["input"], self._manifest(out, seed))
        else:
            spec.update(points=[self.points] * self.dim, modes=self.modes, benchmark=self.benchmark,
                        kappa=KAPPA, reg=REG, t_end=self.t_end)
        _write(os.path.join(workdir, "workload.json"), json.dumps(spec))

    def _config(self, out: str, seed: int) -> str:
        return "\n".join([
            "[grid]", f"dim = {self.dim}", f"points = {self.points}", f"modes = {self.modes}",
            "[physics]", f"kappa = {KAPPA!r}",
            "[regularization]", *_reg_lines(), f"t_end = {self.t_end!r}",
            "[initial]", f"benchmark = {self.benchmark}",
            "[output]", f"directory = {out}", f"snapshot_every = {self.snapshot_every}",
            f"diagnostics_every = {self.diagnostics_every}",
            "[determinism]", f"seed = {seed}", "threads = 1", "",
        ])

    def _manifest(self, out: str, seed: int) -> str:
        return "\n".join([
            "[sweep]", "parameter = kappa", f"values = {', '.join(repr(v) for v in self.ladder)}",
            f"benchmark = {self.benchmark}", f"dim = {self.dim}", f"points = {self.points}",
            f"modes = {self.modes}", f"t_end = {self.t_end!r}", "sample_every = 1", f"seed = {seed}",
            f"output = {out}", "workers = 1",
            "[physics]", f"kappa = {KAPPA!r}",
            "[regularization]", *_reg_lines(), "",
        ])

    def check(self, workdir: str, result: dict | None, seed: int, reference: str | None) -> str | None:
        """None when the run's outputs are correct, else the reason."""
        if result is None:
            return "the workload process wrote no result"
        if result["exit_code"] != 0:
            return f"exit code {result['exit_code']}: {result.get('error')}"
        out = os.path.join(workdir, "out")
        if self.kind == "run":
            return self._check_run(out, seed, reference)
        if self.kind == "sweep":
            return self._check_sweep(out)
        return self._check_identities(workdir, result)

    def _check_run(self, out: str, seed: int, reference: str | None) -> str | None:
        with open(os.path.join(out, "diagnostics.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        expected = self.steps // max(self.diagnostics_every, 1) + 1
        if len(rows) != expected:
            return f"diagnostics.csv has {len(rows)} rows, expected {expected}"
        mass0 = float(rows[0]["mass"])
        for row in rows:
            drift = abs(float(row["mass"]) - mass0) / abs(mass0)
            if not drift <= MASS_DRIFT_TOL:
                return f"mass drift {drift:.3e} at t={row['time']}"
            if not float(row["div_b"]) <= DIV_B_TOL:
                return f"div_b {row['div_b']} at t={row['time']}"
        finals = {f: read_snapshot(os.path.join(out, f"{f}_final.qmhd")) for f in FINAL_FIELDS}
        if seed == DEFAULT_SEED and reference is not None:
            stored = np.load(reference)
            for f, values in finals.items():
                ref = dense_field(stored, f, values.shape)
                err = float(np.linalg.norm(values - ref) / np.linalg.norm(ref))
                if not err <= REFERENCE_TOL:
                    return f"final {f} differs from the reference by {err:.3e} relative L2"
        return None

    def _check_sweep(self, out: str) -> str | None:
        with open(os.path.join(out, "sweep_results.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        values = [float(r["value"]) for r in rows]
        if values != [float(v) for v in self.ladder]:
            return f"rungs {values}, expected {list(self.ladder)}"
        columns = [c for c in rows[0] if c.startswith("dist_")]
        if not columns:
            return "no dist_* columns"
        for col in columns:
            d = [float(r[col]) for r in rows]
            if d[-1] != 0.0 or not all(a > b for a, b in zip(d, d[1:])):
                return f"{col} does not decrease toward the kappa=0 rung: {d}"
        return None

    def _check_identities(self, workdir: str, result: dict) -> str | None:
        with open(os.path.join(workdir, "identities.json")) as fh:
            out = json.load(fh)
        series = out["energy_raw"] + out["energy_relative"] + out["bd_raw"] + out["bd_relative"]
        series += [v for vals in out["weak_form"].values() for v in vals.values()]
        if len(out["energy_raw"]) != self.steps - 1 or not all(math.isfinite(v) for v in series):
            return "a residual is missing or not finite"
        for k, terms in enumerate(result["dissipation"]):
            for name, v in terms.items():
                if not v >= 0.0:
                    return f"dissipation term {name} = {v!r} at sample {k}"
        if len(result["dissipation"]) != self.steps + 1:
            return "dissipation was not evaluated on every sample"
        return None


def _reg_lines() -> list[str]:
    return [f"{k} = {v!r}" for k, v in REG.items()]


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def read_snapshot(path: str) -> np.ndarray:
    """Samples of a qmhd snapshot, vector components first; read from the
    documented layout rather than through qmhd."""
    with open(path, "rb") as fh:
        raw = fh.read()
    magic, _version, dim, n0, n1, n2, kind, _time = SNAPSHOT_HEADER.unpack_from(raw)
    if magic != b"QMHD":
        raise ValueError(f"{path}: not a qmhd snapshot")
    shape = (3,) * kind + (n0, n1, n2)[:dim]
    return np.frombuffer(raw, dtype="<f8", offset=SNAPSHOT_HEADER.size).reshape(shape)


def sparse_spectrum(values: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and values of the rfftn coefficients worth storing."""
    spec = np.fft.rfftn(values, axes=tuple(range(values.ndim - dim, values.ndim)))
    keep = np.flatnonzero(np.abs(spec) > REFERENCE_CUTOFF * np.abs(spec).max())
    return keep.astype(np.int32), spec.ravel()[keep]


def dense_field(stored, field: str, shape: tuple) -> np.ndarray:
    dim = int(stored["dim"])
    axes = tuple(range(len(shape) - dim, len(shape)))
    half = shape[:-1] + (shape[-1] // 2 + 1,)
    spec = np.zeros(half, dtype=np.complex128)
    spec.ravel()[stored[f"{field}_idx"]] = stored[f"{field}_coef"]
    return np.fft.irfftn(spec, s=shape[len(shape) - dim:], axes=axes)


WORKLOADS = {
    "run_2d_n120": Workload("run_2d_n120", "run", 2, 64, 120, "random_smooth", steps=10,
                            diagnostics_every=5, snapshot_every=5),
    "run_3d_n27": Workload("run_3d_n27", "run", 3, 32, 27, "density_bump", steps=2),
    "sweep_1d_kappa": Workload("sweep_1d_kappa", "sweep", 1, 128, 9, "random_smooth", steps=50,
                               ladder=(0.2, 0.1, 0.05, 0.0)),
    "identities_2d_n9": Workload("identities_2d_n9", "identities", 2, 64, 9, "random_smooth", steps=20),
}

# the same workloads at a size that runs in seconds, for the smoke test
TINY = {
    "run_2d_n120": Workload("run_2d_n120", "run", 2, 16, 24, "random_smooth", steps=4,
                            diagnostics_every=2, snapshot_every=2),
    "run_3d_n27": Workload("run_3d_n27", "run", 3, 8, 9, "density_bump", steps=2),
    "sweep_1d_kappa": Workload("sweep_1d_kappa", "sweep", 1, 32, 9, "random_smooth", steps=10,
                               ladder=(0.2, 0.1, 0.05, 0.0)),
    "identities_2d_n9": Workload("identities_2d_n9", "identities", 2, 16, 9, "random_smooth", steps=4),
}
