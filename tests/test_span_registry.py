"""The benchmark's span registry (``benchmarks/spans.py``) names qmhd
functions and every module that binds each of them.  A rename or a dropped
import would leave a per-layer metric unmeasured, so the table is checked
here against the package, without installing any wrapper."""

import importlib
import importlib.util
import os

SPANS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "spans.py")


def _registry():
    spec = importlib.util.spec_from_file_location("qmhd_benchmark_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.REGISTRY


REGISTRY = _registry()


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
