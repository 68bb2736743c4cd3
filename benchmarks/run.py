"""qmhd benchmark: time to solution and per-layer spans for four workloads.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client, one process at a time: each repetition of the
workload runs in a fresh single-threaded interpreter (``child.py``); the
next starts after the previous one has ended and its outputs are checked.
Repetitions continue while the next one is expected to finish within
``--seconds`` (at least three, or two untraced/traced pairs).  With
``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` untraced and traced repetitions alternate and the last line
reports the per-layer metrics of the traced ones plus the tracing overhead.
Run from the root of a checkout; temporary outputs go to ``.bench_runs/``.
See LAYERS.md for the definitions.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# pinned before numpy is imported, here and in every workload process
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("QMHD_THREADS", None)

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".bench_runs")
MIN_REPS = 3
MIN_PAIRS = 2
LAST_START_S = 60.0  # no repetition starts later than this, whatever --seconds says
REP_TIMEOUT_S = 100.0

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "step_ms_min": "ms", "peak_rss_mib": "MiB"}


def run_once(wl, seed: int, traced: bool, tag: str, reference, inspect=None) -> dict:
    """One repetition: prepare inputs, run the child, check its outputs."""
    from workloads import DEFAULT_SEED

    workdir = os.path.join(WORK, f"{wl.name}-{os.getpid()}-{tag}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    wl.prepare(workdir, seed)
    log_path = os.path.join(workdir, "child.log")
    with open(log_path, "w") as log:
        spawn = time.monotonic()
        try:
            code = subprocess.run(
                [sys.executable, CHILD, workdir, "1" if traced else "0", tag],
                cwd=ROOT, stdout=log, stderr=subprocess.STDOUT, timeout=REP_TIMEOUT_S,
            ).returncode
        except subprocess.TimeoutExpired:
            code = None
    result = None
    if code == 0 and os.path.exists(os.path.join(workdir, "result.json")):
        with open(os.path.join(workdir, "result.json")) as fh:
            result = json.load(fh)
    ref = reference if seed == DEFAULT_SEED else None
    try:
        reason = wl.check(workdir, result, seed, ref)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        reason = f"output check could not read the outputs: {exc!r}"
    rep = {"spawn": spawn, "result": result, "reason": reason, "attempted": wl.planned_steps}
    if reason is None:
        rep["failed"] = 0
    elif result is not None and result["exit_code"] == 3:
        rep["failed"] = wl.planned_steps - result["steps_done"]  # steps after the QMHDError
    else:
        rep["failed"] = wl.planned_steps
    if reason is not None:
        with open(log_path) as fh:
            tail = fh.read()[-2000:]
        print(f"[{wl.name} {tag}] FAILED: {reason}\n{tail}", file=sys.stderr)
    if traced and result is not None:
        with open(os.path.join(workdir, "spans.json")) as fh:
            rep["trace"] = json.load(fh)
        shutil.copy(os.path.join(workdir, "spans.json"), os.path.join(WORK, f"last-trace-{wl.name}.json"))
    if inspect is not None:
        inspect(workdir, rep)
    shutil.rmtree(workdir, ignore_errors=True)
    return rep


def end_to_end(reps: list[dict]) -> tuple[dict, list[float], list[float]]:
    """End-to-end metrics over the repetitions that passed their checks.

    The host's speed drifts by up to 2x over seconds to minutes, and
    contention only ever adds time, so per-run medians move with the share
    of the run spent slow.  Times are therefore the fastest seen in the run:
    the best repetition's wall time and the fastest step.  Set-up time and
    memory are medians over the repetitions.  The post-processing times are
    returned for printing only: they vary too much between runs to serve as
    a metric (see LAYERS.md)."""
    setup, wall, post, rss, step_ms = [], [], [], [], []
    for rep in reps:
        res = rep["result"]
        if rep["reason"] is not None or not res["steps"]:
            continue
        setup.append(res["steps"][0][0] - rep["spawn"])
        wall.append(res["t_end"] - rep["spawn"])
        post.append(res["t_end"] - res["steps"][-1][1])
        rss.append(res["maxrss_kib"] / 1024.0)
        step_ms.extend((b - a) * 1e3 for a, b in res["steps"])
    if not wall:
        return {}, [], []
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": min(wall),
        "step_ms_min": min(step_ms),
        "peak_rss_mib": statistics.median(rss),
    }
    return values, step_ms, post


def per_layer(traced: list[dict], untraced_wall: float | None) -> tuple[dict, dict]:
    import spans

    runs, absent, info = [], set(), {"unlisted": set(), "missing": set(), "called": set()}
    for rep in traced:
        if rep["reason"] is not None:
            continue
        tr = rep["trace"]
        absent |= set(tr["install"]["absent"])
        info["unlisted"] |= set(tr["install"]["unlisted_bindings"])
        info["missing"] |= set(tr["install"]["missing_bindings"])
        info["called"] |= {s[1] for s in tr["spans"]}
        runs.append((spans.layer_metrics(tr["spans"], tr["summary"], sorted(absent)),
                     rep["result"]["t_end"] - rep["spawn"]))
    values = {}
    if runs:
        for name in runs[0][0]:
            values[name] = statistics.median(r[0][name] for r in runs)
        if untraced_wall:
            traced_wall = min(r[1] for r in runs)
            values["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    info["absent"] = absent
    return values, info


def run_record(args, reps: int) -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "repetitions": reps, "nproc": os.cpu_count(), "cpu": model,
        "python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs every workload in seconds, for the smoke test")
    args = ap.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "qmhd", "__init__.py")):
        print(f"no qmhd sources under {ROOT}/src: run from the root of a qmhd checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import spans
    from workloads import TINY, WORKLOADS

    table = WORKLOADS if args.size == "full" else TINY
    if args.workload not in table:
        print(f"unknown workload {args.workload!r}; pick one of {sorted(table)}", file=sys.stderr)
        return 2
    wl = table[args.workload]
    reference = os.path.join(HERE, "references", f"{wl.name}.npz") if args.size == "full" and wl.kind == "run" else None

    os.makedirs(WORK, exist_ok=True)
    # compile bytecode and warm the file cache outside the measurement
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import qmhd.cli",
                    os.path.join(ROOT, "src")], cwd=ROOT, timeout=REP_TIMEOUT_S, check=True)

    untraced, traced = [], []
    durations = []
    t_begin = time.monotonic()
    rounds = 0
    while True:
        elapsed = time.monotonic() - t_begin
        enough = len(untraced) >= (MIN_PAIRS if args.trace else MIN_REPS)
        if enough and (elapsed + statistics.median(durations) > args.seconds or elapsed > LAST_START_S):
            break
        t0 = time.monotonic()
        order = (False, True) if rounds % 2 == 0 else (True, False)
        for is_traced in order if args.trace else (False,):
            rep = run_once(wl, args.seed, is_traced, f"{rounds}{'t' if is_traced else 'u'}", reference)
            (traced if is_traced else untraced).append(rep)
        durations.append(time.monotonic() - t0)
        rounds += 1

    all_reps = untraced + traced
    correct = all(r["reason"] is None for r in all_reps)
    attempted = sum(r["attempted"] for r in all_reps)
    failed = sum(r["failed"] for r in all_reps)
    e2e, step_ms, post = end_to_end(untraced)
    print(json.dumps({"run_record": run_record(args, len(all_reps))}))
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} time steps failed)")

    if args.trace:
        values, info = per_layer(traced, e2e.get("wall_s"))
        units = {name: unit for name, (unit, _src) in spans.LAYER_METRICS.items()}
        units["trace.overhead_frac"] = "frac"
        for name in sorted(info["absent"]):
            print(f"absent: {name} no longer exists in qmhd")
        for name in sorted(info["unlisted"]):
            print(f"unlisted binding wrapped: {name}")
        for name in sorted(info["missing"]):
            print(f"listed binding not found: {name}")
        not_called = sorted({e[2] for e in spans.REGISTRY} - info["called"] - info["absent"])
        print(f"not called on this workload (their metrics read 0): {', '.join(not_called)}")
    else:
        values, units = e2e, E2E_UNITS
    if len(step_ms) > 1:
        q = statistics.quantiles(step_ms, n=10)
        print(f"advance_step over {len(step_ms)} steps: min {min(step_ms):.6g} ms, p10 {q[0]:.6g} ms, "
              f"p50 {statistics.median(step_ms):.6g} ms, p90 {q[-1]:.6g} ms")
    if post:
        print(f"post-processing after the last step: best {min(post):.6g} s, median {statistics.median(post):.6g} s "
              f"over {len(post)} repetitions")
    for name, value in values.items():
        print(f"{name:36s} {value:.6g} {units[name]}")
    if not values:
        correct = False
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
