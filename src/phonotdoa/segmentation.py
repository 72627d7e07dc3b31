"""Phoneme segment ingestion and a crude energy-based fallback segmenter.

Alignments are produced externally (forced alignment is out of scope);
this module validates and loads them. The energy segmenter exists for
unlabeled text-dependent use and emits "?" labels.

Both operations read the bottom channel where a channel is needed: it
is closer to the mouth in the primary vertical placement, so it has the
better SNR. That is a convention, not a requirement of the math.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import FIELD_ERRORS, StereoRecording, read_json, write_json
from .errors import SchemaError
from .phonemes import INVENTORY, UNLABELED, PhonemeInventory

ALIGNMENT_SCHEMA_VERSION = 1


@dataclass(frozen=True, order=True)
class PhonemeSegment:
    """Labeled half-open sample interval [start, end) within a recording."""

    start: int
    end: int
    label: str

    def __post_init__(self):
        if not 0 <= self.start < self.end:
            raise SchemaError(
                f"bad segment bounds [{self.start}, {self.end})"
            )

    @property
    def length(self) -> int:
        return self.end - self.start


def validate_segments(segments, n_samples: int) -> list:
    """Sort by start and enforce non-overlap and in-range bounds."""
    out = sorted(segments, key=lambda s: s.start)
    prev_end = 0
    for seg in out:
        if seg.end > n_samples:
            raise SchemaError(
                f"segment [{seg.start}, {seg.end}) exceeds recording "
                f"length {n_samples}"
            )
        if seg.start < prev_end:
            raise SchemaError(
                f"segment [{seg.start}, {seg.end}) overlaps previous one"
            )
        prev_end = seg.end
    return out


def load_alignment(
    path,
    recording: StereoRecording,
    inventory: PhonemeInventory = INVENTORY,
) -> list:
    """Load a versioned alignment JSON file for a recording.

    Schema: {"version": 1, "sample_rate": int,
             "segments": [{"phoneme": str, "start": int, "end": int}, ...]}
    """
    doc = read_json(path, SchemaError)
    if doc.get("version") != ALIGNMENT_SCHEMA_VERSION:
        raise SchemaError(
            f"{path}: expected alignment schema version "
            f"{ALIGNMENT_SCHEMA_VERSION}, got {doc.get('version')!r}"
        )
    try:
        if int(doc["sample_rate"]) != recording.sample_rate:
            raise SchemaError(
                f"alignment rate {doc['sample_rate']} != recording rate "
                f"{recording.sample_rate}"
            )
        segments = [
            PhonemeSegment(
                label=inventory.validate(str(entry["phoneme"])),
                start=int(entry["start"]),
                end=int(entry["end"]),
            )
            for entry in doc["segments"]
        ]
    except FIELD_ERRORS as exc:
        raise SchemaError(f"{path}: malformed alignment: {exc!r}") from exc
    return validate_segments(segments, recording.n_samples)


def save_alignment(segments, sample_rate: int, path) -> None:
    doc = {
        "version": ALIGNMENT_SCHEMA_VERSION,
        "sample_rate": int(sample_rate),
        "segments": [
            {"phoneme": s.label, "start": int(s.start), "end": int(s.end)}
            for s in segments
        ],
    }
    write_json(path, doc)


def segment_by_energy(
    recording: StereoRecording,
    frame_ms: float = 20.0,
    threshold_db: float = 15.0,
) -> list:
    """Return maximal runs of frames above an adaptive energy threshold.

    Frames are frame_ms long with half-frame hop; the threshold sits
    threshold_db above the 5th-percentile frame energy, which makes the
    output invariant to uniform gain scaling. Runs are labeled "?".
    """
    if frame_ms <= 0:
        raise ValueError("frame_ms must be positive")
    x = recording.bottom
    frame = max(1, int(round(frame_ms * 1e-3 * recording.sample_rate)))
    hop = max(1, frame // 2)
    if len(x) < frame:
        return []
    starts = np.arange(0, len(x) - frame + 1, hop)
    energy = np.array([np.mean(x[s : s + frame] ** 2) for s in starts])
    with np.errstate(divide="ignore"):
        level_db = 10.0 * np.log10(energy)
    finite = level_db[np.isfinite(level_db)]
    if finite.size == 0:
        return []
    floor_db = np.percentile(finite, 5)
    active = level_db > floor_db + threshold_db

    segments = []
    run_start = None
    for i, on in enumerate(active):
        if on and run_start is None:
            run_start = i
        elif not on and run_start is not None:
            segments.append(
                PhonemeSegment(
                    start=int(starts[run_start]),
                    end=int(starts[i - 1] + frame),
                    label=UNLABELED,
                )
            )
            run_start = None
    if run_start is not None:
        segments.append(
            PhonemeSegment(
                start=int(starts[run_start]),
                end=int(starts[-1] + frame),
                label=UNLABELED,
            )
        )
    return validate_segments(segments, recording.n_samples)
