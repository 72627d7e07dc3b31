"""The package names the benchmark in perfbench/ calls. Renaming or
re-signing one of them breaks `perfbench/run.py --trace 1` or a workload
without failing any other test."""

import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

from phonotdoa import profiles
from phonotdoa.evaluation import ExperimentConfig
from phonotdoa.geometry import REFERENCE_POSE

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = str(ROOT / "perfbench")


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, PERFBENCH)
    try:
        yield importlib.import_module("layertrace"), importlib.import_module("workloads")
    finally:
        sys.path.remove(PERFBENCH)


def test_every_trace_target_resolves(perfbench):
    layertrace, _ = perfbench
    for module, name, _ in layertrace.TARGETS:
        assert callable(getattr(importlib.import_module(f"phonotdoa.{module}"), name, None)), (
            f"phonotdoa.{module}.{name}"
        )


def test_trace_installs_in_a_process_that_imports_what_run_py_does():
    # perfbench/run.py imports only workloads and layertrace, and
    # Recorder.install finds each target's module in sys.modules: a
    # module that TARGETS names and no import loads fails there, which
    # the test above, importing every module itself, cannot see
    code = "\n".join([
        f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {PERFBENCH!r}]",
        "import workloads, layertrace",
        "recorder = layertrace.Recorder()",
        "recorder.install()",
        "assert not layertrace.originals_restored()",
        "recorder.uninstall()",
        "assert layertrace.originals_restored()",
    ])
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_enroll_wrappers_bind_as_the_workloads_call_them(perfbench):
    _, workloads = perfbench
    device = workloads.DEVICE
    inspect.signature(profiles.enroll_text_dependent).bind("user", "pp", [], REFERENCE_POSE, device)
    inspect.signature(profiles.enroll_text_independent).bind("user", {}, REFERENCE_POSE, device)


def test_corpus_td_config_loads(perfbench):
    # config() reads its dict through ExperimentConfig.from_dict, which
    # refuses a key that is no longer a field
    _, workloads = perfbench
    assert isinstance(workloads.CorpusTd(7, Path(".")).config(0), ExperimentConfig)
