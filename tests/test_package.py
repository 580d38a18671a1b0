import importlib
import importlib.util
import re
import shlex
from pathlib import Path

import hqsim
from hqsim.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"

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
    readme = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "readme_example"})


def test_readme_shell_commands_run(tmp_path, monkeypatch):
    # Every hqsim command of the README's sh blocks exits 0 as written, in a
    # directory holding the 16-sample signal.csv that one of them reads.
    readme = README.read_text(encoding="utf-8")
    commands = [
        words
        for block in re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
        for line in block.replace("\\\n", " ").splitlines()
        if (words := shlex.split(line, comments=True))[:1] == ["hqsim"]
    ]
    assert commands
    monkeypatch.chdir(tmp_path)
    (tmp_path / "signal.csv").write_text("".join(f"{v}\n" for v in range(-8, 8)), encoding="utf-8")
    for words in commands:
        assert main(words[1:]) == EXIT_OK, shlex.join(words)
