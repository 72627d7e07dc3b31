import json

import numpy as np
import pytest

from phonotdoa.audio_io import StereoRecording
from phonotdoa.errors import SchemaError
from phonotdoa.phonemes import VOWEL, default_inventory
from phonotdoa.segmentation import (
    PhonemeSegment,
    load_alignment,
    save_alignment,
)


def _silent(n=9600, fs=192000):
    return StereoRecording(fs, np.zeros(n), np.zeros(n))


def _alignment_file(tmp_path, doc):
    path = tmp_path / "align.json"
    path.write_text(json.dumps(doc))
    return path


def test_inventory_has_44_symbols():
    inv = default_inventory()
    assert len(inv.symbols) == 44
    vowels = [s for s, c in inv.classes.items() if c == VOWEL]
    consonants = [s for s, c in inv.classes.items() if c != VOWEL]
    assert (len(vowels), len(consonants)) == (19, 25)
    assert len(vowels) + len(consonants) == 44
    assert inv.articulation_class("AA") == VOWEL
    assert inv.articulation_class("M") == "nasal"
    assert not inv.is_voiced("K")
    with pytest.raises(SchemaError, match="unknown phoneme label 'QQ'"):
        inv.articulation_class("QQ")


def test_load_alignment_two_segments(tmp_path):
    doc = {
        "version": 1,
        "sample_rate": 192000,
        "segments": [
            {"phoneme": "AA", "start": 0, "end": 4000},
            {"phoneme": "S", "start": 4200, "end": 8000},
        ],
    }
    segs = load_alignment(_alignment_file(tmp_path, doc), _silent())
    assert [s.label for s in segs] == ["AA", "S"]
    assert segs[0].start == 0 and segs[0].end == 4000
    assert segs[1].start == 4200 and segs[1].end == 8000


def test_load_alignment_out_of_range(tmp_path):
    doc = {
        "version": 1,
        "sample_rate": 192000,
        "segments": [{"phoneme": "AA", "start": 5000, "end": 10000}],
    }
    with pytest.raises(SchemaError, match="exceeds recording length 9600"):
        load_alignment(_alignment_file(tmp_path, doc), _silent(9600))


def test_load_alignment_overlap(tmp_path):
    doc = {
        "version": 1,
        "sample_rate": 192000,
        "segments": [
            {"phoneme": "AA", "start": 0, "end": 4000},
            {"phoneme": "S", "start": 3500, "end": 8000},
        ],
    }
    with pytest.raises(SchemaError, match="overlaps previous one"):
        load_alignment(_alignment_file(tmp_path, doc), _silent())


def test_load_alignment_rate_mismatch(tmp_path):
    doc = {"version": 1, "sample_rate": 48000, "segments": []}
    with pytest.raises(SchemaError, match="alignment rate 48000 != recording rate 192000"):
        load_alignment(_alignment_file(tmp_path, doc), _silent())


def test_load_alignment_unknown_label(tmp_path):
    doc = {
        "version": 1,
        "sample_rate": 192000,
        "segments": [{"phoneme": "XX", "start": 0, "end": 100}],
    }
    with pytest.raises(SchemaError, match="unknown phoneme label 'XX'"):
        load_alignment(_alignment_file(tmp_path, doc), _silent())


def test_load_alignment_bad_version(tmp_path):
    doc = {"version": 0, "sample_rate": 192000, "segments": []}
    with pytest.raises(SchemaError, match="expected alignment schema version 1, got 0"):
        load_alignment(_alignment_file(tmp_path, doc), _silent())


@pytest.mark.parametrize("field", ["start", "end", "sample_rate"])
@pytest.mark.parametrize("value", [True, 10.9, 192000.7, "10"])
def test_load_alignment_non_integer_field_rejected(tmp_path, field, value):
    # int() once read 10.9 as 10, true as 1 and "10" as 10, and passed
    # a rate of 192000.7 against a 192 kHz recording
    segment = {"phoneme": "AA", "start": 0, "end": 4000}
    doc = {"version": 1, "sample_rate": 192000, "segments": [segment]}
    if field == "sample_rate":
        doc["sample_rate"] = value
    else:
        segment[field] = value
    with pytest.raises(SchemaError, match="expected an integer"):
        load_alignment(_alignment_file(tmp_path, doc), _silent())


def test_alignment_roundtrip(tmp_path):
    segs = [
        PhonemeSegment(start=100, end=4000, label="AA"),
        PhonemeSegment(start=4100, end=8000, label="S"),
    ]
    path = tmp_path / "a.json"
    save_alignment(segs, 192000, path)
    back = load_alignment(path, _silent())
    assert back == segs


def test_segment_invariants():
    with pytest.raises(SchemaError, match=r"bad segment bounds \[10, 10\)"):
        PhonemeSegment(start=10, end=10, label="AA")
    with pytest.raises(SchemaError, match=r"bad segment bounds \[-1, 10\)"):
        PhonemeSegment(start=-1, end=10, label="AA")


