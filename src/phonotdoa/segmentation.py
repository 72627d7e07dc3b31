"""Phoneme segment ingestion.

Alignments are produced externally (forced alignment is out of scope);
this module validates, loads and saves them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .audio_io import (
    FIELD_ERRORS, StereoRecording, WavReader, json_int, read_json, write_json,
)
from .errors import SchemaError
from .phonemes import INVENTORY

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


def load_alignment(path, recording: StereoRecording | WavReader) -> list:
    """Load a versioned alignment JSON file for a recording, of which it
    reads only sample_rate and n_samples.

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
        if json_int(doc["sample_rate"]) != recording.sample_rate:
            raise SchemaError(
                f"alignment rate {doc['sample_rate']} != recording rate "
                f"{recording.sample_rate}"
            )
        segments = [
            PhonemeSegment(
                label=INVENTORY.validate(str(entry["phoneme"])),
                start=json_int(entry["start"]),
                end=json_int(entry["end"]),
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

