"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of the phonotdoa modules at every
module attribute that holds them (the names their callers look up at
call time), records one span per call, and restores the originals when
the phase ends. No code of the package changes. Spans stay in memory
until `layer_metrics` turns them into per-layer numbers.

A span is a list: [name, layer, parent index, outermost-in-layer flag,
start, end, error type name or None, size or None].
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

NAME, LAYER, PARENT, OUTER, START, END, ERROR, SIZE = range(8)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _utt_samples(args, kwargs, result):
    return 2 * result.recording.n_samples


def _segment_samples(args, kwargs, result):
    return _arg(args, kwargs, 1, "segment").length


def _file_bytes_arg0(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def _file_bytes_arg1(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 1, "path"))


def _report_rows(args, kwargs, result):
    return len(result["rows"])


# (module, function, size measure) for every function that gets a span.
# The layer of a span is the module that defines the function.
TARGETS = (
    ("cli", "main", None),
    ("config", "load_config", None),
    ("audio_io", "load_wav", _file_bytes_arg0),
    ("audio_io", "write_wav", None),
    ("segmentation", "load_alignment", None),
    ("segmentation", "save_alignment", None),
    ("tdoa", "measure_dynamic", None),
    ("tdoa", "estimate_tdoa", _segment_samples),
    ("tdoa", "gcc_phat", None),
    ("tdoa", "normalized_cross_correlation", None),
    ("profiles", "enroll_text_dependent", None),
    ("profiles", "enroll_text_independent", None),
    ("profiles", "assemble_template", None),
    ("profiles", "normalize_dynamic", None),
    ("profiles", "load_profile", None),
    ("profiles", "save_profile", _file_bytes_arg1),
    ("geometry", "transform_tdoa", None),
    ("scoring", "score_dynamic", None),
    ("scoring", "decide", None),
    ("simulator", "synthesize_live", _utt_samples),
    ("simulator", "synthesize_attack", _utt_samples),
    ("evaluation", "run_experiment", _report_rows),
    ("sourcemodel", "load_source_model", None),
)

LAYERS = (
    "cli", "config", "audio_io", "segmentation", "tdoa", "profiles",
    "geometry", "scoring", "simulator", "evaluation", "sourcemodel",
)


class Recorder:
    """Records spans while installed; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._open = Counter()
        self._patched = []  # (module, attribute, original)

    def _wrap(self, fn, name, layer, measure):
        spans, stack, open_layers = self.spans, self._stack, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, stack[-1] if stack else -1,
                    not open_layers[layer], 0.0, 0.0, None, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            open_layers[layer] += 1
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = clock()
                span[ERROR] = type(exc).__name__
                raise
            else:
                span[END] = clock()
            finally:
                open_layers[layer] -= 1
                stack.pop()
            if measure is not None:
                span[SIZE] = measure(args, kwargs, result)
            return result

        traced.perfbench_span = name
        return traced

    def install(self):
        """Wrap every target at every phonotdoa module attribute holding it."""
        if self._patched:
            raise RuntimeError("recorder already installed")
        wrappers = {}
        for module_name, func_name, measure in TARGETS:
            fn = getattr(sys.modules[f"phonotdoa.{module_name}"], func_name)
            wrappers[id(fn)] = self._wrap(
                fn, f"{module_name}.{func_name}", module_name, measure
            )
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value)) if callable(value) else None
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _package_modules() -> list:
    return [
        m for n, m in sorted(sys.modules.items())
        if m is not None and (n == "phonotdoa" or n.startswith("phonotdoa."))
    ]


def originals_restored() -> bool:
    """True when no package module attribute still holds a span wrapper."""
    return not any(
        hasattr(value, "perfbench_span")
        for module in _package_modules()
        for value in vars(module).values()
    )


def self_times(spans) -> list:
    """Span duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans, wall_s: float, setup_spans=()) -> dict:
    """Per-layer metrics of one traced phase that lasted wall_s seconds."""
    own = self_times(spans)
    self_s = Counter()
    busy_s = Counter()
    by_name = Counter()  # self time per function
    total = Counter()  # summed duration per function (none of them recurses)
    outer_calls = Counter()  # calls not nested in another of their layer
    count = Counter()  # every call per function
    size = Counter()
    errors = Counter()
    for s, t in zip(spans, own):
        name, layer = s[NAME], s[LAYER]
        self_s[layer] += t
        by_name[name] += t
        total[name] += s[END] - s[START]
        count[name] += 1
        if s[OUTER]:
            busy_s[layer] += s[END] - s[START]
            outer_calls[layer] += 1
        # a sized call inside another sized call of its layer (a replace
        # attack renders through synthesize_live) is counted once
        parent = spans[s[PARENT]] if s[PARENT] >= 0 else None
        if s[SIZE] is not None and not (
            parent is not None and parent[LAYER] == layer and parent[SIZE] is not None
        ):
            size[name] += s[SIZE]
        if s[ERROR] is not None:
            errors[(name, s[ERROR])] += 1

    sim_calls = outer_calls["simulator"]
    segments = count["tdoa.estimate_tdoa"]
    load_busy = total["audio_io.load_wav"]
    load_bytes = size["audio_io.load_wav"]
    saves = count["profiles.save_profile"]
    enroll_names = ("profiles.enroll_text_dependent", "profiles.enroll_text_independent")
    cli_calls = count["cli.main"]
    unattributed = wall_s - sum(own)

    m = {
        "traced_wall_s": wall_s,
        "unattributed_s": unattributed,
        "trace.spans": len(spans),
        "simulator.calls": sim_calls,
        "simulator.busy_s": busy_s["simulator"],
        "simulator.ms_per_utt": _ratio(busy_s["simulator"] * 1e3, sim_calls),
        "simulator.samples": size["simulator.synthesize_live"] + size["simulator.synthesize_attack"],
        "tdoa.segments": segments,
        "tdoa.busy_s": busy_s["tdoa"],
        "tdoa.us_per_segment": _ratio(busy_s["tdoa"] * 1e6, segments),
        "tdoa.segment_samples": size["tdoa.estimate_tdoa"],
        "tdoa.gcc_phat.self_s": by_name["tdoa.gcc_phat"],
        "tdoa.failed": sum(n for (name, _), n in errors.items() if name == "tdoa.estimate_tdoa"),
        "audio_io.load_wav.calls": count["audio_io.load_wav"],
        "audio_io.load_wav.busy_s": load_busy,
        "audio_io.load_wav.bytes": load_bytes,
        "audio_io.mb_per_s": _ratio(load_bytes / 1e6, load_busy),
        "segmentation.load_alignment.busy_s": total["segmentation.load_alignment"],
        "profiles.enroll.calls": sum(count[n] for n in enroll_names),
        "profiles.enroll.self_s": sum(by_name[n] for n in enroll_names),
        "profiles.load_profile.busy_s": total["profiles.load_profile"],
        "profiles.save_profile.busy_s": total["profiles.save_profile"],
        "profiles.save_profile.bytes": _ratio(size["profiles.save_profile"], saves),
        "geometry.transform.calls": count["geometry.transform_tdoa"],
        "geometry.passthrough": errors[("geometry.transform_tdoa", "NoSolutionError")],
        "geometry.busy_s": busy_s["geometry"],
        "scoring.calls": count["scoring.score_dynamic"],
        "scoring.busy_s": busy_s["scoring"],
        "evaluation.self_s": self_s["evaluation"],
        "evaluation.rows": size["evaluation.run_experiment"],
        "cli.self_ms": _ratio(self_s["cli"] * 1e3, cli_calls),
        "sourcemodel.load_s": sum(
            s[END] - s[START] for s in setup_spans
            if s[NAME] == "sourcemodel.load_source_model"
        ),
    }
    for layer in LAYERS:
        m[f"{layer}.share"] = _ratio(self_s[layer], wall_s)
    m["unattributed.share"] = _ratio(unattributed, wall_s)
    return m


def _ratio(num, den) -> float:
    return num / den if den else 0.0
