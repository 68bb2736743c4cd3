"""Command-line entry points: run, sweep, check, inspect.

Exit codes: 0 success, 1 usage, 2 configuration, 3 numerical failure,
4 I/O failure.  All files are written inside the configured output
directory: snapshots, the config echo and sweep outputs atomically, and
``diagnostics.csv`` one flushed row at a time, so a failed run keeps its rows.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .basis import GalerkinBasis
from .config import RunConfig, canonical_text, parse_config, parse_manifest_text
from .config import parse_config_text  # noqa: F401 -- unused; benchmarks/spans.py wraps this binding
from .diagnostics import DerivedFields, DiagnosticsWriter
from .errors import ConfigError, QMHDError, SnapshotFormatError, UsageError
from .experiments import SweepSpec, benchmark_state, content_hash, run_sweep, sweep_rows
from .fields import ScalarField, VectorField, divergence, l2_norm
from .grid import TorusGrid
from .snapshots import atomic_write, read_snapshot, write_snapshot
from .solver import _div_b_bound, _div_norm, cfl_report, initial_state, run_simulation, step_count


def _build_state(config: RunConfig, basis: GalerkinBasis, grid: TorusGrid):
    if config.benchmark:
        return benchmark_state(config.benchmark, grid, basis, config.reg, seed=config.seed)
    rho, _ = read_snapshot(config.rho_path)
    vel, _ = read_snapshot(config.velocity_path)
    mag, t0 = read_snapshot(config.magnetic_path)
    if not isinstance(rho, ScalarField) or not isinstance(vel, VectorField) or not isinstance(mag, VectorField):
        raise SnapshotFormatError("initial data must be one scalar and two vector snapshots")
    return initial_state(rho, vel, mag, basis, config.reg, time=t0)


def _per_step(iters: float, sweeps: float) -> str:
    """How a run's steps converged, on average."""
    return f"per step {iters:.2f} Picard iterations, {sweeps:.2f} full sweeps"


def cmd_run(args) -> int:
    config = parse_config(args.config)
    grid = TorusGrid(config.points)
    basis = GalerkinBasis.lowest_modes(grid, config.modes)
    state = _build_state(config, basis, grid)
    try:
        # the parser checks a benchmark's steps from t = 0; snapshot data start at their own time
        steps = step_count(state.time, config.t_end, config.reg.dt, config.diagnostics_every)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    out = config.output_directory
    os.makedirs(out, exist_ok=True)
    atomic_write(os.path.join(out, "config_echo.cfg"), canonical_text(config).encode())

    def write_snapshots(s, stamp: str) -> None:
        # through a record of its own: the velocity's and B's samples are
        # formed for the files and freed with them, not cached on the state,
        # whose B the next step reads as spectra only
        f = DerivedFields.of(s, config.reg)
        for name, field in (("rho", f.rho), ("velocity", f.u), ("magnetic", f.magnetic)):
            write_snapshot(os.path.join(out, f"{name}_{stamp}.qmhd"), field, s.time)

    print(f"qmhd {__version__}: advancing to t={config.t_end} (dt={config.reg.dt})")
    for key, val in cfl_report(state, config.phys, config.reg).items():
        print(f"  cfl {key:28s} {val:.3e}")

    with DiagnosticsWriter(os.path.join(out, "diagnostics.csv"), config.phys, config.reg) as writer:

        def on_step(step, s, info):
            if step % config.diagnostics_every == 0:
                writer.write_row(s, info)
            if config.snapshot_every and step % config.snapshot_every == 0:
                write_snapshots(s, f"{step:08d}")

        # rows and snapshots stream from on_step, so the trajectory holds
        # the initial and the final state only
        traj = run_simulation(
            state, config.phys, config.reg, config.t_end, sample_every=max(steps, 1), on_step=on_step
        )

    final = traj.final_state
    write_snapshots(final, "final")
    print(f"finished at t={final.time:.6f}; min rho={final.rho.values.min():.6e}; "
          f"worst contraction ratio={traj.max_contraction_ratio:.3f}; {_per_step(*traj.mean_counts())}")
    print(f"wrote {out}/diagnostics.csv and final snapshots")
    return 0


def parse_sweep_manifest(path) -> tuple[SweepSpec, str, int]:
    """The ladder, output directory and worker count of a sweep manifest."""
    with open(path) as fh:
        manifest = parse_manifest_text(fh.read())
    return manifest.spec, manifest.output, manifest.workers


def cmd_sweep(args) -> int:
    spec, out, workers = parse_sweep_manifest(args.manifest)
    result = run_sweep(spec, workers=workers)
    rows = sweep_rows(result)
    # created once every rung has run, so a failed sweep leaves nothing behind
    os.makedirs(out, exist_ok=True)

    # every rung's row has the same keys, each holding a float
    columns = sorted(rows[0])
    csv_path = os.path.join(out, "sweep_results.csv")
    lines = [",".join(columns)] + [",".join(repr(row[c]) for c in columns) for row in rows]
    atomic_write(csv_path, ("\n".join(lines) + "\n").encode())

    manifest_lines = ["[sweep.result]"]
    manifest_lines.append(f"parameter = {spec.parameter}")
    manifest_lines.append(f"values = {', '.join(str(v) for v in spec.values)}")
    for key, order in sorted(result.convergence_orders.items()):
        manifest_lines.append(f"order_{key} = {order!r}")
    manifest_lines.append(f"file = sweep_results.csv sha256 {content_hash(csv_path)}")
    manifest_text = "\n".join(manifest_lines) + "\n"
    atomic_write(os.path.join(out, "sweep_manifest.txt"), manifest_text.encode())

    print(f"sweep over {spec.parameter}: {len(rows)} rungs")
    for row, counts in zip(rows, result.counts):
        print(f"  value={row['value']:<12g} min_rho={row['min_rho']:.4e} "
              f"dist(sqrt_rho_u)={row['dist_sqrt_rho_u']:.4e} {_per_step(*counts)}")
    print(f"wrote {csv_path}")
    return 0


def _print_check(name: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}  {name:40s} {detail}")
    return ok


def cmd_check(args) -> int:
    config = parse_config(args.config)
    from .constitutive import cold_enthalpy, cold_pressure, enthalpy, pressure
    from .diagnostics import bohm_identity_check
    from .fields import curl, dealias, gradient, laplacian, project_divergence_free

    grid = TorusGrid(config.points)
    basis = GalerkinBasis.lowest_modes(grid, config.modes)
    rng = np.random.default_rng(config.seed)

    ok = True
    f = ScalarField(grid, rng.standard_normal(grid.shape))
    back = ScalarField.from_spectrum(grid, f.spectrum)
    err = float(np.max(np.abs(back.values - f.values)) / max(np.max(np.abs(f.values)), 1e-300))
    ok &= _print_check("transform round-trip", err <= 1e-12, f"rel err {err:.2e}")

    g = dealias(f)
    lap_via = divergence(gradient(g))
    lap_direct = laplacian(g)
    err = float(np.max(np.abs(lap_via.values - lap_direct.values)))
    ok &= _print_check("divergence of gradient = laplacian", err <= 1e-9, f"abs err {err:.2e}")

    v = VectorField.from_arrays(grid, [dealias(ScalarField(grid, rng.standard_normal(grid.shape))).values for _ in range(3)])
    err = l2_norm(divergence(curl(v)))
    ok &= _print_check("divergence of curl vanishes", err <= 1e-10, f"L2 {err:.2e}")

    p = project_divergence_free(v)
    err = l2_norm(divergence(p)) / max(l2_norm(p), 1e-300)
    ok &= _print_check("projection kills divergence", err <= 1e-12, f"rel {err:.2e}")

    # extended precision keeps the centered difference clear of power-law
    # evaluation noise; same closed forms as production
    rho_grid = np.geomspace(1e-3, 1e3, 41).astype(np.longdouble)
    h = np.longdouble(1e-6) * rho_grid
    hi, lo = rho_grid + h, rho_grid - h
    for name, enth, pres in (("enthalpy", enthalpy, pressure), ("cold enthalpy", cold_enthalpy, cold_pressure)):
        rho_dH = rho_grid * (enth(hi, config.phys) - enth(lo, config.phys)) / (hi - lo)
        H, P = enth(rho_grid, config.phys), pres(rho_grid, config.phys)
        scale = np.maximum.reduce([np.abs(rho_dH), np.abs(H), np.abs(P), np.ones_like(rho_grid)])
        err = float(np.max(np.abs(rho_dH - H - P) / scale))
        ok &= _print_check(f"{name} identity", err <= 1e-10, f"rel err {err:.2e}")

    mesh = grid.mesh
    rho = ScalarField(grid, 1.5 + 0.2 * np.cos(mesh[0]))
    err = bohm_identity_check(rho, kappa=1.0)
    ok &= _print_check("scheme's quantum force = Bohm force", err <= 1e-6, f"L2 discrepancy {err:.2e}")

    gram = basis.gram(ScalarField(grid, np.ones(grid.shape)))
    err = float(np.max(np.abs(gram - np.eye(basis.n))))
    ok &= _print_check("unit-density Gram is identity", err <= 1e-12, f"max dev {err:.2e}")

    state = benchmark_state(config.benchmark or "density_bump", grid, basis, config.reg, seed=config.seed)
    err = _div_norm(state.magnetic)
    ok &= _print_check("initial B solenoidal", err <= _div_b_bound(state.magnetic), f"L2 div {err:.2e}")
    lam = state.velocity.values
    err = float(np.linalg.norm(basis.project(state.velocity.reconstruct()) - lam) / max(np.linalg.norm(lam), 1e-300))
    ok &= _print_check("initial velocity in the span", err <= 1e-12, f"rel err {err:.2e}")

    return 0 if ok else 3


def cmd_inspect(args) -> int:
    field, time = read_snapshot(args.snapshot)
    grid = field.grid
    kind = "vector" if isinstance(field, VectorField) else "scalar"
    print(f"snapshot {args.snapshot}")
    print(f"  kind      {kind}")
    print(f"  dim       {grid.dim}")
    print(f"  shape     {grid.shape}")
    print(f"  time      {time!r}")
    if isinstance(field, VectorField):
        for i, c in enumerate(field.components):
            print(
                f"  component {i}: L2 {l2_norm(c)!r} min {float(c.values.min())!r} "
                f"max {float(c.values.max())!r}"
            )
        print(f"  div L2    {_div_norm(field)!r}")
    else:
        print(f"  L2        {l2_norm(field)!r}")
        print(f"  min/max   {float(field.values.min())!r} {float(field.values.max())!r}")
        print(f"  mean      {float(field.values.mean())!r}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qmhd", description="Quantum MHD pseudo-spectral solver and diagnostics")
    parser.add_argument("--version", action="version", version=f"qmhd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="advance a configured simulation")
    p_run.add_argument("config")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="execute a parameter-ladder manifest")
    p_sweep.add_argument("manifest")
    p_sweep.set_defaults(func=cmd_sweep)

    p_check = sub.add_parser("check", help="run the invariant battery without a simulation")
    p_check.add_argument("config")
    p_check.set_defaults(func=cmd_check)

    p_inspect = sub.add_parser("inspect", help="print a snapshot header and norms")
    p_inspect.add_argument("snapshot")
    p_inspect.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SnapshotFormatError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except QMHDError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
