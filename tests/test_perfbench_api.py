"""The package names the benchmark in perfbench/ calls. Renaming or
re-signing one of them breaks `perfbench/run.py --trace 1` or a workload
without failing any other test."""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

from phonotdoa import profiles
from phonotdoa.evaluation import ExperimentConfig
from phonotdoa.geometry import REFERENCE_POSE

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


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
