"""One workload run in a fresh interpreter.

Usage: child.py <workdir> <trace 0|1> <run_id>

The parent writes the inputs into <workdir> (``workload.json`` plus any
config or manifest) and starts this script with the thread variables already
set to 1.  The script imports qmhd from the checkout's ``src``, runs the
workload through qmhd's public entry points and writes ``result.json``
(clock readings, exit status, peak RSS) and, when traced, ``spans.json``.
Clock readings are ``time.monotonic()``, which the parent shares.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    workdir, trace, run_id = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    for var in THREAD_VARS:
        if os.environ.get(var) != "1":
            print(f"{var} must be 1 before numpy is imported", file=sys.stderr)
            return 2
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    sys.path.insert(0, src)
    sys.path.insert(1, here)
    with open(os.path.join(workdir, "workload.json")) as fh:
        spec = json.load(fh)

    rec = None
    if trace:
        import spans

        rec = spans.Recorder(run_id)
        spans.install_transform_counter(rec)

    if spec["kind"] == "identities":
        import qmhd.diagnostics  # noqa: F401
        import qmhd.experiments  # noqa: F401
    else:
        import qmhd.cli  # noqa: F401
    import qmhd

    if not os.path.abspath(qmhd.__file__).startswith(src + os.sep):
        print(f"qmhd imported from {qmhd.__file__}, not from {src}", file=sys.stderr)
        return 2
    t_imported = time.monotonic()

    steps: list[list[float]] = []
    record = {}
    if trace:
        record = spans.install_spans(rec)
    else:
        import qmhd.solver as solver_mod

        advance = solver_mod.advance_step

        def timed_step(*args, **kwargs):
            t0 = time.monotonic()
            out = advance(*args, **kwargs)
            steps.append([t0, time.monotonic()])
            return out

        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "qmhd" and vars(mod).get("advance_step") is advance:
                mod.advance_step = timed_step

    from qmhd.errors import QMHDError

    result = {"t_start": T_START, "t_imported": t_imported, "exit_code": 0, "error": None}
    if rec is not None:
        rec.active = True
        root = rec.open("workload")
    try:
        if spec["kind"] == "identities":
            checks = _identities(spec, workdir)
        else:
            result["exit_code"] = qmhd.cli.main([spec["kind"], spec["input"]])
    except QMHDError as exc:
        result["exit_code"] = 3
        result["error"] = f"{type(exc).__name__}: {exc}"
    result["t_end"] = time.monotonic()
    result["steps"] = steps
    result["steps_done"] = len(steps)
    if rec is not None:
        rec.close(root)
        rec.active = False
        # a step span carries its StepInfo only when the step returned
        result["steps_done"] = sum(1 for r in rec.spans if r[1] == "advance_step" and r[14] is not None)
    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if spec["kind"] == "identities" and result["exit_code"] == 0:
        # outside the timed region: the dissipation terms the check reads
        checks(result)

    if rec is not None:
        summary = rec.summary()
        summary["import_s"] = t_imported - T_START
        with open(os.path.join(workdir, "spans.json"), "w") as fh:
            json.dump({"spans": rec.spans, "summary": summary, "install": record}, fh)
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


def _identities(spec: dict, workdir: str):
    """Library-API workload: run with every step sampled, then the energy,
    BD-entropy and weak-form residuals on the trajectory."""
    import qmhd.diagnostics as diag
    import qmhd.experiments as exp
    import qmhd.solver as solver
    from qmhd.basis import GalerkinBasis
    from qmhd.constitutive import PhysParams
    from qmhd.grid import TorusGrid

    grid = TorusGrid(tuple(spec["points"]))
    basis = GalerkinBasis.lowest_modes(grid, spec["modes"])
    phys = PhysParams(kappa=spec["kappa"])
    reg = solver.RegParams(**spec["reg"])
    state = exp.benchmark_state(spec["benchmark"], grid, basis, reg, seed=spec["seed"])
    traj = solver.run_simulation(state, phys, reg, spec["t_end"], sample_every=1)
    energy = diag.energy_identity_residual(traj)
    bd, _reports = diag.bd_entropy_residual(traj)
    weak = diag.weak_form_residual(traj)
    out = {
        "energy_raw": energy.raw.tolist(),
        "energy_relative": energy.relative.tolist(),
        "bd_raw": bd.raw.tolist(),
        "bd_relative": bd.relative.tolist(),
        "weak_form": {eq: {k: float(v) for k, v in vals.items()} for eq, vals in weak.items()},
    }
    with open(os.path.join(workdir, "identities.json"), "w") as fh:
        json.dump(out, fh)

    def checks(result):
        result["dissipation"] = [
            {k: float(v) for k, v in diag.compute_dissipation(s, phys, reg).as_dict().items()}
            for s in traj.states
        ]

    return checks


if __name__ == "__main__":
    sys.exit(main())
