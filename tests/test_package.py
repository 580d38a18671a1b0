import importlib
import importlib.util
from pathlib import Path

import hqsim

SUBMODULES = ("core", "costs", "hybrid_fft", "readout", "search")


def test_package_exports_the_submodules_lists():
    lists = [importlib.import_module(f"hqsim.{name}").__all__ for name in SUBMODULES]
    union = set().union(*lists)
    assert set(hqsim.__all__) == union
    assert len(hqsim.__all__) == sum(len(names) for names in lists)  # no name twice
    for name in hqsim.__all__:
        assert getattr(hqsim, name) is not None


def test_benchmark_trace_targets_resolve():
    # A traced benchmark run wraps these functions by name; one that goes
    # missing makes the run fail.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module_name, func_name in tracer.TARGETS:
        module = importlib.import_module(f"hqsim.{module_name}")
        assert callable(getattr(module, func_name, None)), (module_name, func_name)
