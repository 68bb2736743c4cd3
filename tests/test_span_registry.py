"""The benchmark's span registry (``benchmarks/spans.py``) names qmhd
functions and every module that binds each of them.  A rename or a dropped
import would leave a per-layer metric unmeasured, so the table is checked
here against the package, without installing any wrapper."""

import importlib
import importlib.util
import os
import sys

from qmhd import GalerkinBasis, PhysParams, RegParams, TorusGrid, advance_step
from qmhd.experiments import benchmark_state

SPANS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "spans.py")


def _spans():
    spec = importlib.util.spec_from_file_location("qmhd_benchmark_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _spans()
REGISTRY = SPANS.REGISTRY


def test_every_registry_name_resolves_and_is_bound_where_listed():
    problems = []
    for _layer, home, name, also in REGISTRY:
        module = importlib.import_module(home)
        if "." in name:
            cls_name, attr = name.split(".", 1)
            if attr not in vars(getattr(module, cls_name, object)):
                problems.append(f"{home}.{name} is absent")
            continue
        target = vars(module).get(name)
        if target is None:
            problems.append(f"{home}.{name} is absent")
            continue
        for other in also:
            if vars(importlib.import_module(other)).get(name) is not target:
                problems.append(f"{other} does not bind {home}.{name}")
    assert not problems


def test_no_qmhd_module_binds_a_listed_function_the_registry_does_not_list():
    # the benchmark wraps such a binding too but reports it as unlisted, and
    # its smoke test fails on it; the table must name every binding
    import qmhd.cli  # noqa: F401 -- imports every module the commands use

    # id of each listed function -> the function, its name and its modules
    listed = {}
    for _layer, home, name, also in REGISTRY:
        fn = vars(importlib.import_module(home)).get(name)
        if "." not in name and fn is not None:
            listed[id(fn)] = (fn, name, {home, *also})
    unlisted = []
    for modname, module in list(sys.modules.items()):
        if module is None or modname.split(".")[0] != "qmhd":
            continue
        for attr, value in vars(module).items():
            entry = listed.get(id(value))
            if entry and entry[0] is value and (attr != entry[1] or modname not in entry[2]):
                unlisted.append(f"{modname}.{attr}")
    assert not unlisted


def test_the_step_attribute_reads_what_advance_step_returns():
    # the benchmark reads each step's iterations and worst ratio off the
    # StepInfo that advance_step returns; a slimmer StepInfo fails here
    # instead of leaving solver.picard_* unmeasured
    grid = TorusGrid((32,))
    basis = GalerkinBasis.lowest_modes(grid, 6)
    phys, reg = PhysParams(kappa=0.1), RegParams(epsilon=1e-2, eta=1e-3, delta=1e-4, dt=1e-3)
    state = benchmark_state("density_bump", grid, basis, reg)
    result = advance_step(state, phys, reg)
    info = result[1]
    assert info.contraction_ratios
    attr = SPANS.ATTRS["advance_step"]((state, phys, reg), {}, result)
    assert attr == [info.picard_iters, max(info.contraction_ratios, default=0.0)]
