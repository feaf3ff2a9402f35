"""The benchmark's span tracer (bench/tracer.py) binds names of the package:
public functions at every import site, the private ``kernel._rk45``, law and
class methods, and argument hooks on a few functions.  Installing it here,
without running a benchmark pass, makes a refactor that deletes or renames
one of those names fail the test suite and not only the benchmark's own
self-test."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from mbpilab import laws

_SPEC = importlib.util.spec_from_file_location(
    "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py")
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)


def _package_modules():
    return {name: module for name, module in sys.modules.items()
            if name == "mbpilab" or name.startswith("mbpilab.")}


def test_tracer_wraps_every_bound_name_and_restores():
    layers = {layer: importlib.import_module(f"mbpilab.{layer}")
              for layer in tracer.LAYERS}
    modules = _package_modules()
    before = {name: dict(vars(module)) for name, module in modules.items()}
    spans = tracer.Tracer()
    with spans.patched() as patches:
        assert patches
        for owner, attr, original in patches:
            assert vars(owner)[attr] is not original, f"{owner}.{attr}"
        originals = {id(original) for _, _, original in patches}
        missed = [f"{name}.{attr}" for name, module in modules.items()
                  for attr, obj in vars(module).items() if id(obj) in originals]
        assert not missed
        # the private span and every argument hook land on a wrapped function
        wrapped = {f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
                   for owner, attr, _ in patches if inspect.ismodule(owner)}
        assert tracer.FLOW in wrapped
        assert set(spans._hooks(layers)) <= wrapped
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original, f"{owner}.{attr} left patched"
    for name, module in modules.items():
        after = vars(module)
        assert after.keys() == before[name].keys()
        assert all(after[attr] is obj for attr, obj in before[name].items())


def test_law_classes_keep_the_tracer_contract():
    # the tracer wraps the two law methods once, on the shared class, and
    # counts flow right-hand sides by the offspring law's class
    model = laws.stable_model(0.5, 1.0, 0.75, 0.25, J=50)
    assert isinstance(model.offspring, laws.BranchingLaw)
    assert not isinstance(model.immigration, laws.BranchingLaw)
    for method in ("gf", "gf_at_one_minus"):
        assert method in vars(laws._IntensityLaw)
        assert method not in vars(laws.BranchingLaw)
        assert method not in vars(laws.ImmigrationLaw)



def _law_counters(spans):
    return {name: value for name, value in spans.count.items()
            if name.startswith("laws.") and value}


def test_tracer_counts_the_truncated_kernel_as_series():
    # the truncated model's kernel evaluates only series, and its flow
    # right-hand sides are offspring evaluations inside the integrator
    from mbpilab import kernel
    model = laws.stable_model(0.5, 1.0, 0.75, 0.25, J=2000).truncated()
    spans = tracer.Tracer()
    with spans.patched():
        kernel.transition_grid(model, [0], [5.0], 64, M=256, clamp=True)
    assert _law_counters(spans).keys() == {
        "laws.series_calls", "laws.series_points", "laws.series_s"}
    assert spans.count["kernel.flow_rhs_evals"] > 0
    # a stable law evaluates its closed form
    spans = tracer.Tracer()
    with spans.patched():
        laws.make_stable_offspring(0.5, 1.0, J=50).gf([0.0, 0.3])
    assert _law_counters(spans).keys() == {
        "laws.closed_calls", "laws.closed_points", "laws.closed_s"}
