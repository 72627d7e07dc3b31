import json

import numpy as np
import pytest

from phonotdoa.audio_io import StereoRecording
from phonotdoa.errors import SchemaError
from phonotdoa.phonemes import default_inventory
from phonotdoa.segmentation import (
    PhonemeSegment,
    load_alignment,
    save_alignment,
    segment_by_energy,
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
    assert len(inv.vowels) + len(inv.consonants) == 44
    assert inv.is_vowel("AA")
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


def _burst_recording(bursts, fs=48000, total_s=1.0, noise=1e-4, seed=0):
    """bursts: list of (start_s, dur_s) 1 kHz tone bursts."""
    rng = np.random.default_rng(seed)
    n = int(total_s * fs)
    x = rng.normal(0.0, noise, n)
    t = np.arange(n) / fs
    for start_s, dur_s in bursts:
        lo = int(start_s * fs)
        hi = lo + int(dur_s * fs)
        x[lo:hi] += 0.4 * np.sin(2 * np.pi * 1000 * t[lo:hi])
    x = np.clip(x, -1, 1)
    return StereoRecording(fs, x.copy(), x)


def test_energy_pure_silence():
    rec = StereoRecording(48000, np.zeros(48000), np.zeros(48000))
    assert segment_by_energy(rec) == []


def test_energy_single_burst_bounds():
    fs = 48000
    rec = _burst_recording([(0.40, 0.05)], fs=fs)
    segs = segment_by_energy(rec)
    assert len(segs) == 1
    frame = int(0.020 * fs)
    assert abs(segs[0].start - int(0.40 * fs)) <= frame
    assert abs(segs[0].end - int(0.45 * fs)) <= frame
    assert segs[0].label == "?"


def test_energy_two_bursts():
    rec = _burst_recording([(0.20, 0.05), (0.35, 0.05)])
    segs = segment_by_energy(rec)
    assert len(segs) == 2
    assert segs[0].end <= segs[1].start


def test_energy_gain_invariance():
    rec = _burst_recording([(0.30, 0.06)])
    segs1 = segment_by_energy(rec)
    scaled = StereoRecording(rec.sample_rate, rec.top * 0.05, rec.bottom * 0.05)
    segs2 = segment_by_energy(scaled)
    assert segs1 == segs2


def test_energy_output_sorted_non_overlapping():
    rec = _burst_recording([(0.1, 0.04), (0.3, 0.04), (0.5, 0.04)])
    segs = segment_by_energy(rec)
    for a, b in zip(segs, segs[1:]):
        assert a.end <= b.start


def test_energy_bad_frame():
    rec = _silent()
    with pytest.raises(ValueError):
        segment_by_energy(rec, frame_ms=0.0)
