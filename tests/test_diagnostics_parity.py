"""Every diagnostics output on three fixed trajectories, pinned to stored
values.

The stored file ``diagnostics_reference.json`` holds what ``record`` returned
on the solver that sweeps density, magnetic field and velocity once per
fixed-point iteration, with no inner loops.  Every diagnostics change must
reproduce every number to 1e-12 relative.  ``record`` uses only the public
diagnostics and experiments API, so it runs unchanged on both sides.

Some entries divide energy differences near 1e-14 by dt, so a solver change
that is not bitwise equal moves them by more than 1e-12; such a change
re-records the file by running this module as a script.
"""

import json
import os
import re

import pytest

from qmhd import GalerkinBasis, PhysParams, RegParams, TorusGrid, run_simulation
from qmhd.diagnostics import (
    bd_entropy_residual,
    compute_dissipation,
    compute_energy,
    energy_identity_residual,
    norm_monitor,
    weak_form_residual,
)
from qmhd.experiments import (
    benchmark_state,
    capillarity_term_weak_integral,
    quantum_term_weak_integral,
)

REFERENCE = os.path.join(os.path.dirname(__file__), "diagnostics_reference.json")

# an entry matches when it moved by at most REL_TOL of its size plus ABS_TOL,
# the floor for entries at roundoff level
REL_TOL, ABS_TOL = 1e-12, 1e-15

# name -> (grid shape, velocity modes); every regularization is on
CASES = {
    "1d_128": ((128,), 9),
    "2d_64": ((64, 64), 9),
    "3d_16": ((16, 16, 16), 27),
}


def trajectory(shape, n_modes):
    grid = TorusGrid(shape)
    basis = GalerkinBasis.lowest_modes(grid, n_modes)
    phys = PhysParams(kappa=0.3)
    reg = RegParams(epsilon=0.02, eta=0.01, delta=1e-4, s=1, dt=1e-3)
    state = benchmark_state("random_smooth", grid, basis, reg, seed=0)
    return run_simulation(state, phys, reg, 4e-3)


def record(traj) -> dict[str, float]:
    """Flat name -> value map of every diagnostics output on ``traj``."""
    phys, reg = traj.phys, traj.reg
    out: dict[str, float] = {}
    for i, s in enumerate(traj.states):
        for k, v in compute_energy(s, phys, reg).as_dict().items():
            out[f"energy[{i}].{k}"] = v
        for k, v in compute_dissipation(s, phys, reg).as_dict().items():
            out[f"dissipation[{i}].{k}"] = v
        for k, v in norm_monitor(s, phys, reg).items():
            out[f"monitor[{i}].{k}"] = v
    energy = energy_identity_residual(traj)
    bd, reports = bd_entropy_residual(traj)
    for i, rep in enumerate(reports):
        for k, v in rep.as_dict().items():
            out[f"bd[{i}].{k}"] = v
    for tag, series in (("energy_residual", energy), ("bd_residual", bd)):
        for i, (raw, rel) in enumerate(zip(series.raw, series.relative)):
            out[f"{tag}[{i}].raw"] = raw
            out[f"{tag}[{i}].relative"] = rel
    for eq, per_fn in weak_form_residual(traj).items():
        for name, v in per_fn.items():
            out[f"weak_form.{eq}.{name}"] = v
    for k, v in quantum_term_weak_integral(traj, phys.kappa).items():
        out[f"quantum_weak.{k}"] = v
    for s_order in (1, 2):
        for k, v in capillarity_term_weak_integral(traj, reg.delta, s_order).items():
            out[f"capillarity_weak_s{s_order}.{k}"] = v
    return {k: float(v) for k, v in out.items()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_diagnostics_match_stored_values(case):
    with open(REFERENCE) as fh:
        expected = json.load(fh)[case]
    got = record(trajectory(*CASES[case]))
    assert sorted(got) == sorted(expected)
    bad = {
        k: (got[k], v)
        for k, v in expected.items()
        if not abs(got[k] - v) <= REL_TOL * abs(v) + ABS_TOL
    }
    assert not bad, bad


def largest_changes(old: dict[str, float], new: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per key family (the name up to its first ``[`` or ``.``), the largest
    relative change |new - old| / |old| of a key both maps hold, and that key.
    A key that moved by at most ABS_TOL is at roundoff and counts as unchanged."""
    worst: dict[str, tuple[float, str]] = {}
    for key in sorted(old.keys() & new.keys()):
        family = re.split(r"[\[.]", key, maxsplit=1)[0]
        a, b = old[key], new[key]
        change = abs(b - a) / abs(a) if abs(b - a) > ABS_TOL else 0.0
        if family not in worst or change > worst[family][0]:
            worst[family] = (change, key)
    return worst


if __name__ == "__main__":
    # writes the reference file from the code on the import path; run it only
    # on a commit whose diagnostics are the ones to pin.  It first prints, per
    # case and key family, the largest relative change against the stored file
    data = {case: record(trajectory(*args)) for case, args in CASES.items()}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            stored = json.load(fh)
        for case, values in data.items():
            old = stored.get(case, {})
            if sorted(old) != sorted(values):
                print(f"{case}: keys differ from the stored file")
            for family, (change, key) in largest_changes(old, values).items():
                print(f"{case} {family}: {change:.2e} on {key} (stored {old[key]:.3e})")
    with open(REFERENCE, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {sum(map(len, data.values()))} values to {REFERENCE}")
