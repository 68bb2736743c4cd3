import gc
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import qmhd.fields
from qmhd import TorusGrid
from qmhd.fields import ScalarField, VectorField
from qmhd.solver import run_simulation


@pytest.fixture
def grid1d():
    return TorusGrid((64,))


@pytest.fixture
def grid2d():
    return TorusGrid((32, 32))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def band_limited_scalar(grid, rng, max_mode=4, amplitude=1.0):
    """Random real field with modes confined to |k|_inf <= max_mode."""
    keys = [tuple(i - max_mode for i in idx) for idx in np.ndindex(*([2 * max_mode + 1] * grid.dim))]
    f = ScalarField.from_modes(grid, [(k, rng.normal() + 1j * rng.normal()) for k in keys if any(k)])
    peak = np.max(np.abs(f.values))
    return ScalarField(grid, amplitude * f.values / max(peak, 1e-300))


def band_limited_vector(grid, rng, max_mode=4, amplitude=1.0):
    return VectorField(
        grid, [band_limited_scalar(grid, rng, max_mode, amplitude) for _ in range(3)]
    )


def mode_profile(grid, mode):
    """Grid samples of one basis mode, built from its data: 1/sqrt(vol) for
    k = 0, else sqrt(2/vol) cos(k.x) or sqrt(2/vol) sin(k.x)."""
    vol = grid.volume
    if all(v == 0 for v in mode.wavevector):
        return np.full(grid.shape, 1.0 / np.sqrt(vol))
    phase = sum(mode.wavevector[a] * grid.mesh[a] for a in range(grid.dim))
    return np.sqrt(2.0 / vol) * (np.cos(phase) if mode.trig == "cos" else np.sin(phase))


def run_with_infos(*args, **kwargs):
    """``run_simulation(*args, **kwargs)`` and the list of every step's
    ``StepInfo``, collected through ``on_step``."""
    infos = []

    def keep(step, state, info):
        if info is not None:
            infos.append(info)

    return run_simulation(*args, on_step=keep, **kwargs), infos


def count_transforms(monkeypatch) -> Counter:
    """Count logical transforms from here on: calls of ``qmhd.fields._forward``
    and ``_backward`` wherever qmhd binds them, keyed ``(direction, form)``
    with direction "forward" or "backward" and form "full" or "box".  A box
    transform is one count, however many axis passes it makes."""
    counts = Counter()
    for name, direction in (("_forward", "forward"), ("_backward", "backward")):
        original = getattr(qmhd.fields, name)

        def counted(values, grid, box=None, _original=original, _direction=direction):
            counts[_direction, "full" if box is None else "box"] += 1
            return _original(values, grid, box)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").split(".")[0] == "qmhd" and vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


def transient_peak(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the peak, in bytes, of the memory it
    allocated above what was live when it started, as ``tracemalloc`` traces
    it: the working set of the call, whatever it returns or frees."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak - live


def left_live(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the bytes still live once it has
    returned, above what was live when it started, as ``tracemalloc``
    traces them: what the call's result and any cache it filled hold.
    Both readings follow a full collection, so freed objects that CPython's
    free lists keep do not count."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        gc.collect()
        live = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, after - live


def transform_counts(backward_full=0, forward_full=0, backward_box=0, forward_box=0) -> Counter:
    """The :func:`count_transforms` counter of these exact counts."""
    return Counter({
        ("backward", "full"): backward_full,
        ("forward", "full"): forward_full,
        ("backward", "box"): backward_box,
        ("forward", "box"): forward_box,
    })
