"""Regenerate the stored final snapshots of the run_* workloads.

    python3 benchmarks/make_references.py

Runs each run_* workload once at the default seed, the same way the
benchmark does, and stores the significant rfftn coefficients of the final
rho, velocity and magnetic snapshots in ``references/<workload>.npz``.
Regenerate only when a change to qmhd is meant to change its results.
"""

import os
import sys

import run  # pins the thread variables before numpy is imported

import numpy as np  # noqa: E402

from workloads import DEFAULT_SEED, FINAL_FIELDS, WORKLOADS, dense_field, read_snapshot, sparse_spectrum  # noqa: E402

MAX_DROPPED_TAIL = 1e-9  # relative L2 of the coefficients left out


def store(wl, workdir: str, rep: dict) -> None:
    if rep["reason"] is not None:
        raise SystemExit(f"{wl.name}: the run failed its checks: {rep['reason']}")
    data = {"dim": np.int64(wl.dim)}
    for f in FINAL_FIELDS:
        values = read_snapshot(os.path.join(workdir, "out", f"{f}_final.qmhd"))
        data[f"{f}_idx"], data[f"{f}_coef"] = sparse_spectrum(values, wl.dim)
        tail = np.linalg.norm(dense_field(data, f, values.shape) - values) / np.linalg.norm(values)
        if not tail <= MAX_DROPPED_TAIL:
            raise SystemExit(f"{wl.name}: stored {f} drops {tail:.2e} of the field")
        print(f"{wl.name}: {f} keeps {data[f'{f}_idx'].size} coefficients, dropped tail {tail:.1e}")
    np.savez_compressed(os.path.join(run.HERE, "references", f"{wl.name}.npz"), **data)


def main() -> int:
    os.makedirs(os.path.join(run.HERE, "references"), exist_ok=True)
    os.makedirs(run.WORK, exist_ok=True)
    for wl in WORKLOADS.values():
        if wl.kind == "run":
            run.run_once(wl, DEFAULT_SEED, False, "ref", None, inspect=lambda d, r, wl=wl: store(wl, d, r))
    return 0


if __name__ == "__main__":
    sys.exit(main())
