import os
import re
from dataclasses import replace

import numpy as np
import pytest

from qmhd.cli import main, parse_sweep_manifest
from qmhd.experiments import run_sweep, sweep_rows
from qmhd.fields import VectorField
from qmhd.snapshots import read_snapshot

RUN_CFG = """
[grid]
points = 32
modes = 6
[physics]
kappa = 0.05
[regularization]
epsilon = 0.01
dt = 0.001
t_end = 0.005
picard_tol = 1e-11
[initial]
benchmark = density_bump
[output]
directory = {out}
snapshot_every = 5
diagnostics_every = 1
"""

SWEEP_MANIFEST = """
[sweep]
parameter = kappa
values = 0.1, 0.05, 0
benchmark = density_bump
dim = 1
points = 32
modes = 6
t_end = 0.004
output = {out}
[regularization]
dt = 0.001
picard_tol = 1e-11
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_subcommand_and_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(tmp_path, "run.cfg", RUN_CFG.format(out=out))
    assert main(["run", cfg]) == 0
    captured = capsys.readouterr().out
    assert "finished at t=" in captured
    # the closing line says how the steps converged
    iters, sweeps = map(float, re.search(r"per step (\S+) Picard iterations, (\S+) full sweeps", captured).groups())
    assert 1.0 <= sweeps <= iters
    assert (out / "diagnostics.csv").exists()
    assert (out / "config_echo.cfg").exists()
    assert (out / "rho_final.qmhd").exists()
    field, t = read_snapshot(out / "rho_final.qmhd")
    assert t == pytest.approx(0.005)
    # snapshots at the configured cadence
    assert (out / "rho_00000000.qmhd").exists()
    assert (out / "rho_00000005.qmhd").exists()


def test_run_holds_the_initial_and_the_final_state_only(tmp_path, monkeypatch):
    # rows and snapshots stream from the per-step hook, so the trajectory
    # samples only its two ends, whatever the row cadence
    import qmhd.cli

    trajectories = []
    run_simulation = qmhd.cli.run_simulation

    def kept(*args, **kwargs):
        trajectories.append(run_simulation(*args, **kwargs))
        return trajectories[-1]

    monkeypatch.setattr(qmhd.cli, "run_simulation", kept)
    out = tmp_path / "out"
    text = RUN_CFG.format(out=out).replace("t_end = 0.005", "t_end = 0.006").replace("diagnostics_every = 1", "diagnostics_every = 2")
    assert main(["run", _write(tmp_path, "run.cfg", text)]) == 0
    (traj,) = trajectories
    assert (len(traj.states) - 1) * traj.sample_every == 6
    assert [s.time for s in traj.states] == pytest.approx([0.0, 0.006])
    assert len((out / "diagnostics.csv").read_text().splitlines()) == 1 + 4


def test_run_deterministic_outputs(tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    cfg1 = _write(tmp_path, "r1.cfg", RUN_CFG.format(out=out1))
    cfg2 = _write(tmp_path, "r2.cfg", RUN_CFG.format(out=out2))
    assert main(["run", cfg1]) == 0
    assert main(["run", cfg2]) == 0
    for name in ("diagnostics.csv", "rho_final.qmhd", "velocity_final.qmhd", "magnetic_final.qmhd"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_usage_error_t_end_before_t0(tmp_path):
    # start from a snapshot whose header time exceeds t_end
    out = tmp_path / "out"
    cfg = _write(tmp_path, "seed.cfg", RUN_CFG.format(out=out))
    assert main(["run", cfg]) == 0
    later = RUN_CFG.format(out=tmp_path / "out2").replace("t_end = 0.005", "t_end = 0.004") + (
        "[initial]\n"
        f"rho_path = {out}/rho_final.qmhd\n"
        f"velocity_path = {out}/velocity_final.qmhd\n"
        f"magnetic_path = {out}/magnetic_final.qmhd\n"
    )
    cfg2 = _write(tmp_path, "late.cfg", later)
    assert main(["run", cfg2]) == 1


def test_paths_are_read_relative_to_the_working_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", _write(tmp_path, "seed.cfg", RUN_CFG.format(out="snap"))]) == 0
    (tmp_path / "cfgdir").mkdir()
    later = RUN_CFG.format(out="later").replace("t_end = 0.005", "t_end = 0.01") + (
        "[initial]\n"
        "rho_path = snap/rho_final.qmhd\n"
        "velocity_path = snap/velocity_final.qmhd\n"
        "magnetic_path = snap/magnetic_final.qmhd\n"
    )
    _write(tmp_path, "cfgdir/late.cfg", later)
    assert main(["run", "cfgdir/late.cfg"]) == 0
    # the echo names the same paths, so it runs from the same directory
    assert main(["run", "later/config_echo.cfg"]) == 0


def test_bad_config_exit_code(tmp_path, monkeypatch):
    # the config's default directory is relative: keep any output in tmp_path
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path, "bad.cfg", "[grid]\npoints = 32\nbogus = 1\n")
    assert main(["check", cfg]) == 2
    assert main(["run", cfg]) == 2


@pytest.mark.parametrize(
    "text, message",
    [
        ("[physics]\ngamma = nan\n", "PhysParams: gamma must be finite"),
        ("[regularization]\ndt = inf\n", "RegParams: dt must be finite"),
        ("[grid]\npoints = 8\nmodes = 5000\n", "grid.modes: exceeds the 15 dealias-resolved modes on this grid (line 3)"),
        # 6 steps with a row every 4 would end the run's samples at t = 0.004
        ("[regularization]\nt_end = 0.006\n[output]\ndiagnostics_every = 4\n",
         "output.diagnostics_every: must divide the 6 steps to t_end (line 4)"),
    ],
    ids=["nan_gamma", "infinite_dt", "unresolvable_modes", "rows_miss_t_end"],
)
def test_unusable_config_is_a_config_error(tmp_path, monkeypatch, capsys, text, message):
    # the config's default directory is relative: keep any output in tmp_path
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path, "bad.cfg", text)
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert "Traceback" not in err


def test_usage_exit_code():
    assert main(["frobnicate"]) == 1


@pytest.mark.parametrize("points, modes", [(32, 6), (16, 3)])
def test_check_passes_on_default_config(tmp_path, capsys, points, modes):
    cfg = _write(tmp_path, "chk.cfg", f"[grid]\npoints = {points}\nmodes = {modes}\n")
    assert main(["check", cfg]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_python_m_qmhd_runs_the_command_line(tmp_path):
    # ``python -m qmhd`` runs the command line without the installed script
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cfg = _write(tmp_path, "chk.cfg", "[grid]\npoints = 32\nmodes = 6\n")
    for args, out in ((["--version"], "qmhd "), (["check", cfg], "PASS")):
        done = subprocess.run([sys.executable, "-m", "qmhd", *args], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert out in done.stdout


def test_check_fails_on_a_divergent_initial_field(tmp_path, monkeypatch, capsys):
    import qmhd.cli

    build = qmhd.cli.benchmark_state

    def divergent(*args, **kwargs):
        # B = (0.1 sin x, 0, 0) has divergence 0.1 cos x
        state = build(*args, **kwargs)
        grid = state.rho.grid
        zero = np.zeros(grid.shape)
        return replace(state, magnetic=VectorField.from_arrays(grid, [0.1 * np.sin(grid.mesh[0]), zero, zero]))

    monkeypatch.setattr(qmhd.cli, "benchmark_state", divergent)
    cfg = _write(tmp_path, "chk.cfg", "[grid]\npoints = 32\nmodes = 6\n")
    assert main(["check", cfg]) == 3
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert len(failed) == 1 and "initial B solenoidal" in failed[0]


def test_inspect_reports_writer_side_norms(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(tmp_path, "run.cfg", RUN_CFG.format(out=out))
    assert main(["run", cfg]) == 0
    field, _ = read_snapshot(out / "rho_final.qmhd")
    from qmhd.fields import l2_norm

    assert main(["inspect", str(out / "rho_final.qmhd")]) == 0
    text = capsys.readouterr().out
    assert repr(l2_norm(field)) in text
    assert "scalar" in text


def test_inspect_missing_file_is_io_error(tmp_path):
    assert main(["inspect", str(tmp_path / "missing.qmhd")]) == 4


@pytest.mark.parametrize("points, reason", [(8, "field values must be finite"), (9, "points per axis must be even")])
def test_inspect_of_data_the_field_types_reject_is_io_error(tmp_path, capsys, points, reason):
    from qmhd.snapshots import _HEADER, MAGIC, VERSION

    samples = np.ones(points)
    samples[3] = np.nan if points == 8 else 2.0
    path = tmp_path / "bad.qmhd"
    path.write_bytes(_HEADER.pack(MAGIC, VERSION, 1, points, 0, 0, 0, 0.0) + samples.astype("<f8").tobytes())
    assert main(["inspect", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and str(path) in err and reason in err


def test_inspect_of_an_unsupported_version_is_io_error(tmp_path, capsys):
    from qmhd.snapshots import _HEADER, MAGIC

    path = tmp_path / "future.qmhd"
    path.write_bytes(_HEADER.pack(MAGIC, 2, 1, 8, 0, 0, 0, 0.0) + bytes(64))
    assert main(["inspect", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and f"{path}: unsupported version 2" in err


def test_inspect_of_a_vector_snapshot(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(tmp_path, "run.cfg", RUN_CFG.format(out=out))
    assert main(["run", cfg]) == 0
    capsys.readouterr()
    field, _ = read_snapshot(out / "magnetic_final.qmhd")
    from qmhd.fields import l2_norm

    assert main(["inspect", str(out / "magnetic_final.qmhd")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "vector" in lines[1]
    components = [line for line in lines if line.startswith("  component")]
    assert len(components) == 3
    for i, (line, c) in enumerate(zip(components, field.components)):
        assert line.startswith(f"  component {i}: L2 {l2_norm(c)!r} ")
    assert lines[-1].startswith("  div L2")


def test_sweep_subcommand(tmp_path, capsys):
    out = tmp_path / "sweep_out"
    manifest = _write(tmp_path, "sweep.cfg", SWEEP_MANIFEST.format(out=out))
    assert main(["sweep", manifest]) == 0
    assert (out / "sweep_results.csv").exists()
    text = (out / "sweep_manifest.txt").read_text()
    assert "sha256" in text
    # determinism: repeat into a second directory, bitwise-equal results
    out2 = tmp_path / "sweep_out2"
    manifest2 = _write(tmp_path, "sweep2.cfg", SWEEP_MANIFEST.format(out=out2))
    assert main(["sweep", manifest2]) == 0
    assert (out / "sweep_results.csv").read_bytes() == (out2 / "sweep_results.csv").read_bytes()
    # the CSV is the sweep's rows: a header of each row's sorted keys, then
    # one line per rung of the repr of each of its values
    spec, _, _ = parse_sweep_manifest(manifest)
    rows = sweep_rows(run_sweep(spec))
    header, *lines = (out / "sweep_results.csv").read_text().splitlines()
    assert all(header.split(",") == sorted(row) for row in rows)
    assert [line.split(",") for line in lines] == [[repr(row[c]) for c in sorted(row)] for row in rows]


def test_sweep_prints_each_rungs_iterations_and_full_sweeps(tmp_path, capsys):
    out = tmp_path / "sweep_out"
    manifest = _write(tmp_path, "sweep.cfg", SWEEP_MANIFEST.format(out=out))
    assert main(["sweep", manifest]) == 0
    captured = capsys.readouterr().out
    counts = re.findall(r"value=.* per step (\S+) Picard iterations, (\S+) full sweeps", captured)
    assert len(counts) == 3
    for iters, sweeps in counts:
        assert 1.0 <= float(sweeps) <= float(iters)
    # the counts are printed only
    assert "picard" not in (out / "sweep_results.csv").read_text().lower()


@pytest.mark.parametrize(
    "command, text, name",
    [("run", RUN_CFG, "config_echo.cfg"), ("sweep", SWEEP_MANIFEST, "sweep_results.csv")],
    ids=["run", "sweep"],
)
def test_failed_rename_keeps_old_output_and_leaves_no_temp_file(
    tmp_path, monkeypatch, command, text, name
):
    out = tmp_path / "out"
    out.mkdir()
    (out / name).write_text("old\n")
    config = _write(tmp_path, "input.cfg", text.format(out=out))

    def failing_replace(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", failing_replace)
    assert main([command, config]) == 4
    assert (out / name).read_text() == "old\n"
    assert sorted(p.name for p in out.iterdir()) == [name]


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def test_threads_key_sets_no_thread_variable(tmp_path, monkeypatch):
    # the BLAS pools exist once numpy has loaded, so qmhd leaves these alone
    for var in THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    cfg = _write(tmp_path, "chk.cfg", "[grid]\npoints = 32\nmodes = 6\n[determinism]\nthreads = 4\n")
    assert main(["check", cfg]) == 0
    assert [var for var in THREAD_VARS if var in os.environ] == []


def test_numerical_failure_exit_code(tmp_path):
    cfg = _write(
        tmp_path,
        "blow.cfg",
        RUN_CFG.format(out=tmp_path / "o") + "\n[determinism]\nseed = 0\n",
    )
    text = cfg and (tmp_path / "blow.cfg").read_text().replace("dt = 0.001", "dt = 5.0").replace(
        "t_end = 0.005", "t_end = 10.0"
    ).replace("picard_tol = 1e-11", "picard_tol = 1e-11\npicard_max_iters = 10")
    (tmp_path / "blow.cfg").write_text(text)
    assert main(["run", str(tmp_path / "blow.cfg")]) == 3
    # the row written before the failing step stays on disk
    lines = (tmp_path / "o" / "diagnostics.csv").read_text().splitlines()
    assert lines[0].startswith("time,") and len(lines) == 2
    assert float(lines[1].split(",")[0]) == 0.0


def _run_cfg(out, t_end, snapshot_every, diagnostics_every):
    return (
        RUN_CFG.format(out=out)
        .replace("t_end = 0.005", f"t_end = {t_end}")
        .replace("snapshot_every = 5", f"snapshot_every = {snapshot_every}")
        .replace("diagnostics_every = 1", f"diagnostics_every = {diagnostics_every}")
    )


def test_snapshots_follow_their_own_cadence_and_finals_are_at_t_end(tmp_path):
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, "run.cfg", _run_cfg(out, 0.006, 3, 2))]) == 0
    stamps = sorted(p.name for p in out.glob("rho_0*.qmhd"))
    assert stamps == ["rho_00000000.qmhd", "rho_00000003.qmhd", "rho_00000006.qmhd"]
    assert read_snapshot(out / "rho_00000003.qmhd")[1] == pytest.approx(0.003)
    times = [line.split(",")[0] for line in (out / "diagnostics.csv").read_text().splitlines()[1:]]
    assert [float(t) for t in times] == pytest.approx([0.0, 0.002, 0.004, 0.006])
    for name in ("rho", "velocity", "magnetic"):
        assert read_snapshot(out / f"{name}_final.qmhd")[1] == pytest.approx(0.006)


def test_snapshots_and_rows_leave_b_as_spectra_on_the_state_a_step_reads(tmp_path, monkeypatch):
    # a snapshot, like a row, reads a state through a record of its own, so
    # every step starts from a state holding B as spectra only
    import qmhd.solver

    starts = []
    advance = qmhd.solver.advance_step

    def recorded(state, *args, **kwargs):
        starts.append([c._values is None for c in state.magnetic.components])
        return advance(state, *args, **kwargs)

    monkeypatch.setattr(qmhd.solver, "advance_step", recorded)
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, "run.cfg", _run_cfg(out, 0.004, 1, 1))]) == 0
    assert starts == [[True] * 3] * 4


RESUME_CFG = """
[grid]
dim = 2
points = 32
modes = 27
[physics]
kappa = 0.1
[regularization]
epsilon = 0.01
eta = 0.001
delta = 0.0001
dt = 0.001
t_end = 0.008
[output]
directory = {out}
snapshot_every = 4
[initial]
"""


def test_a_run_resumed_from_its_snapshots_reaches_the_uninterrupted_final_state(tmp_path):
    # a resume has no levels before its snapshots, so its first steps start
    # from lower-order guesses: it meets the same fixed points to within
    # picard_tol, not bitwise
    fields = ("rho", "velocity", "magnetic")
    whole, resumed = tmp_path / "whole", tmp_path / "resumed"
    from_step_4 = "".join(f"{f}_path = {whole / f}_00000004.qmhd\n" for f in fields)
    for out, initial in [(whole, "benchmark = random_smooth\n"), (resumed, from_step_4)]:
        assert main(["run", _write(tmp_path, f"{out.name}.cfg", RESUME_CFG.format(out=out) + initial)]) == 0
    assert read_snapshot(resumed / "rho_00000000.qmhd")[1] == pytest.approx(0.004)
    for f in fields:
        a, b = (read_snapshot(out / f"{f}_final.qmhd")[0] for out in (whole, resumed))
        if isinstance(a, VectorField):
            a, b = (np.array(v.component_values()) for v in (a, b))
        else:
            a, b = a.values, b.values
        assert np.linalg.norm(b - a) <= 1e-10 * np.linalg.norm(a), f


@pytest.mark.parametrize(
    "t0, every, message",
    [(0.0015, 1, "is not a whole number of steps"), (0.002, 2, "the 3 steps to t_end are not a multiple of the sampling cadence 2")],
    ids=["off_the_dt_grid", "rows_miss_t_end"],
)
def test_snapshot_initial_time_is_checked_before_any_output(tmp_path, capsys, t0, every, message):
    from qmhd import TorusGrid
    from qmhd.experiments import benchmark_fields
    from qmhd.snapshots import write_snapshot

    fields = dict(zip(("rho", "velocity", "magnetic"), benchmark_fields("density_bump", TorusGrid((32,)))))
    initial = "[initial]\n"
    for name, field in fields.items():
        write_snapshot(tmp_path / f"{name}.qmhd", field, t0)
        initial += f"{name}_path = {tmp_path / name}.qmhd\n"
    out = tmp_path / "out"
    cfg = _write(tmp_path, "late.cfg", _run_cfg(out, 0.005, 0, every) + initial)
    assert main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("swapped", ["rho", "velocity", "magnetic"])
def test_snapshots_of_the_wrong_kind_are_an_io_error(tmp_path, capsys, swapped):
    # each of the three snapshots replaced by one of the other kind
    from qmhd import TorusGrid
    from qmhd.experiments import benchmark_fields
    from qmhd.snapshots import write_snapshot

    rho, u, b = benchmark_fields("density_bump", TorusGrid((32,)))
    fields = {"rho": rho, "velocity": u, "magnetic": b, **{swapped: u if swapped == "rho" else rho}}
    initial = "[initial]\n"
    for name, field in fields.items():
        write_snapshot(tmp_path / f"{name}.qmhd", field, 0.0)
        initial += f"{name}_path = {tmp_path / name}.qmhd\n"
    out = tmp_path / "out"
    cfg = _write(tmp_path, "kinds.cfg", _run_cfg(out, 0.005, 0, 1) + initial)
    assert main(["run", cfg]) == 4
    err = capsys.readouterr().err
    assert err == "i/o error: initial data must be one scalar and two vector snapshots\n"


# a valid manifest; each case below breaks one line of it (dt is on line 11)
BAD_MANIFEST = """[sweep]
parameter = kappa
values = 0.1, 0.05, 0
points = 32
modes = 6
t_end = 0.004
output = {out}
[physics]
kappa = 0.05
[regularization]
dt = 0.001
"""


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("dt = 0.001", "dt_typo = 0.001", "line 11: unknown key 'dt_typo'"),
        ("points = 32", "points = 32\npoints = 64", "line 5: duplicate key sweep.points"),
        ("0.1, 0.05, 0", "0.2, 0", "at least 3 rungs (line 3)"),
        ("0.1, 0.05, 0", "0.2, x, 0", "cannot parse sweep.values"),
        ("points = 32", "points = 33", "sweep.points: each axis needs an even count"),
        ("points = 32", "points = 32\nbenchmark = vortex", "sweep.benchmark: must be one of"),
        ("points = 32", "points = 32\nworkers = 0", "sweep.workers: must be at least 1"),
        ("kappa\nvalues = 0.1, 0.05, 0", "n\nvalues = 3, 5.7, 9", "mode counts must be integers"),
        ("points = 32", "points = 32\nsample_every = 0", "sweep.sample_every: must be at least 1"),
        ("points = 32", "points = 32\nsample_every = 3", "sweep.sample_every: must divide the 4 steps to t_end (line 5)"),
        ("t_end = 0.004", "t_end = 0.0045", "sweep.t_end: must be an integer number of dt steps"),
        ("points = 32", "points = 32\nseed = -1", "sweep.seed: must be nonnegative"),
        ("modes = 6", "modes = 64", "sweep.modes: exceeds the 63 dealias-resolved modes on this grid (line 5)"),
        ("kappa\nvalues = 0.1, 0.05, 0", "n\nvalues = 3, 9, 64",
         "sweep.values: mode counts exceed the 63 dealias-resolved modes on this grid (line 3)"),
        ("0.1, 0.05, 0", "inf, 0.05, 0", "ladder values must be finite"),
        ("dt = 0.001", "dt = nan", "RegParams: dt must be finite, got nan (line 11)"),
        ("kappa = 0.05", "kappa = inf", "PhysParams: kappa must be finite"),
        ("[sweep]\nparameter = kappa", "[regularization]\neta = 0.01\n[sweep]\nparameter = delta",
         "regularization.eta: a delta rung sets eta = epsilon = delta^2; leave it out (line 2)"),
        ("[sweep]\nparameter = kappa", "[regularization]\nepsilon = 0.01\n[sweep]\nparameter = delta",
         "regularization.epsilon: a delta rung sets eta = epsilon = delta^2; leave it out (line 2)"),
        ("kappa\nvalues = 0.1, 0.05, 0", "n\nvalues = 0, 3, 9", "SweepSpec: mode counts must be at least 1 (line 3)"),
        ("t_end = 0.004", "t_end = 0", "SweepSpec: a ladder needs t_end > 0 (line 6)"),
    ],
    ids=["typo_line_11", "repeated_key", "two_rungs", "non_numeric_rung", "odd_points",
         "unknown_benchmark", "no_workers", "fractional_modes", "no_sampling", "sampling_misses_t_end", "partial_step", "negative_seed",
         "unresolvable_modes", "unresolvable_mode_rung", "infinite_rung", "nan_dt", "infinite_kappa", "delta_ladder_sets_eta",
         "delta_ladder_sets_epsilon", "zero_mode_rung", "zero_t_end"],
)
def test_bad_manifest_is_a_config_error_before_any_output(tmp_path, capsys, old, new, message):
    out = tmp_path / "out"
    text = BAD_MANIFEST.format(out=out)
    assert old in text
    manifest = _write(tmp_path, "bad.sweep", text.replace(old, new))
    assert main(["sweep", manifest]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_failed_sweep_leaves_no_output_directory(tmp_path, capsys):
    # the initial density 0.5 is below 10x this floor, so the first rung fails
    out = tmp_path / "faildir"
    text = BAD_MANIFEST.format(out=out) + "density_floor = 0.1\n"
    manifest = _write(tmp_path, "fails.sweep", text)
    assert main(["sweep", manifest]) == 3
    assert capsys.readouterr().err.startswith("numerical failure:")
    assert not out.exists()


LADDERS = os.path.join(os.path.dirname(__file__), os.pardir, "ladders")


def _ladder_specs():
    """The SweepSpec each removed limit-study script built at its defaults,
    with the output directory and worker count it used."""
    from qmhd import PhysParams, RegParams
    from qmhd.experiments import SweepSpec

    common = dict(dim=1, points=128, sample_every=5, seed=0)
    return {
        "planck_limit": (
            SweepSpec(
                parameter="kappa",
                values=(0.2, 0.1, 0.05, 0.025, 0.0),
                benchmark="density_bump",
                t_end=0.25,
                phys=PhysParams(),
                reg=RegParams(epsilon=0.01, eta=1e-3, delta=1e-3, dt=1e-3, picard_tol=1e-11),
                n_modes=9,
                **common,
            ),
            "runs/planck_limit",
        ),
        "regularization_limit_s1": (
            SweepSpec(
                parameter="delta",
                values=(0.08, 0.04, 0.02, 0.01),
                benchmark="density_bump",
                t_end=0.2,
                phys=PhysParams(kappa=0.1),
                reg=RegParams(dt=1e-3, s=1, picard_tol=1e-11),
                n_modes=9,
                **common,
            ),
            "runs/regularization_limit_s1",
        ),
        "regularization_limit_s4": (
            SweepSpec(
                parameter="delta",
                values=(4e-4, 2e-4, 1e-4),
                benchmark="density_bump",
                t_end=0.2,
                phys=PhysParams(kappa=0.1),
                reg=RegParams(dt=1e-3, s=4, picard_tol=1e-11),
                n_modes=9,
                **common,
            ),
            "runs/regularization_limit_s4",
        ),
        "galerkin_refinement": (
            SweepSpec(
                parameter="n",
                values=(3, 9, 15, 21, 33),
                benchmark="random_smooth",
                t_end=0.1,
                phys=PhysParams(kappa=0.05),
                reg=RegParams(epsilon=0.01, dt=1e-3, picard_tol=1e-11),
                **common,
            ),
            "runs/galerkin_refinement",
        ),
    }


@pytest.mark.parametrize("name", sorted(_ladder_specs()))
def test_ladder_manifest_matches_script_spec(name):
    from qmhd.cli import parse_sweep_manifest

    expected, output = _ladder_specs()[name]
    spec, out, workers = parse_sweep_manifest(os.path.join(LADDERS, f"{name}.sweep"))
    assert spec == expected
    assert [type(v) for v in spec.values] == [type(v) for v in expected.values]
    assert (out, workers) == (output, 1)


def test_every_ladder_manifest_is_tested():
    names = {f[: -len(".sweep")] for f in os.listdir(LADDERS) if f.endswith(".sweep")}
    assert names == set(_ladder_specs())


def _first_step_cases():
    from qmhd import PicardDivergence

    stalls = pytest.mark.xfail(
        strict=True,
        raises=PicardDivergence,
        reason="the s = 4 capillarity term (lap^9 on 128 points) holds the velocity update near 5e-7 relative, "
        "a roundoff floor above picard_tol that no smaller dt brings down",
    )
    return [pytest.param(name, marks=stalls) if name == "regularization_limit_s4" else name for name in sorted(_ladder_specs())]


@pytest.mark.parametrize("name", _first_step_cases())
def test_first_step_of_each_ladder_converges(name):
    from qmhd.basis import GalerkinBasis
    from qmhd.cli import parse_sweep_manifest
    from qmhd.experiments import benchmark_state
    from qmhd.grid import TorusGrid
    from qmhd.solver import advance_step

    spec, _, _ = parse_sweep_manifest(os.path.join(LADDERS, f"{name}.sweep"))
    phys, reg, n = spec.rung_params(spec.values[0])
    grid = TorusGrid((spec.points,) * spec.dim)
    state = benchmark_state(spec.benchmark, grid, GalerkinBasis.lowest_modes(grid, n), reg, seed=spec.seed)
    _, info = advance_step(state, phys, reg)
    assert info.update_norms[-1] <= reg.picard_tol
