import importlib
import importlib.util
import re
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


def test_readme_python_examples_run():
    # Every Python block of the README runs as written.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "readme_example"})
