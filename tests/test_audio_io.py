import math
import struct
import tracemalloc
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonotdoa.audio_io import _BLOCK_FRAMES, StereoRecording, WavReader, load_wav, write_wav
from phonotdoa.errors import FormatError
from phonotdoa.segmentation import PhonemeSegment
from phonotdoa.tdoa import Method, measure_dynamic


def _write_raw(path, n_channels, sampwidth, rate, frames: bytes):
    with wave.open(str(path), "wb") as w:
        w.setnchannels(n_channels)
        w.setsampwidth(sampwidth)
        w.setframerate(rate)
        w.writeframes(frames)


def test_length_and_rate_pass_through(tmp_path):
    rng = np.random.default_rng(0)
    data = (rng.integers(-1000, 1000, size=9600 * 2)).astype("<i2")
    path = tmp_path / "a.wav"
    _write_raw(path, 2, 2, 192000, data.tobytes())
    rec = load_wav(path)
    assert rec.sample_rate == 192000
    assert len(rec.top) == 9600
    assert len(rec.bottom) == 9600


def _pcm(words, bits: int) -> bytes:
    words = np.asarray(words, dtype="<i4")
    if bits == 24:
        return words.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    return words.astype("<i2" if bits == 16 else "<i4").tobytes()


@pytest.mark.parametrize("bits", [16, 24, 32])
def test_int16_full_scale_normalization(tmp_path, bits):
    # load_wav skips the sample range scan because of this: a word
    # scaled by 2^(1-bits) lies in [-1, 1 - 2^(1-bits)]
    full = 2 ** (bits - 1)
    path = tmp_path / "fs.wav"
    _write_raw(path, 2, bits // 8, 48000, _pcm([full - 1, -full, 0, full // 2], bits))
    rec = load_wav(path)
    assert rec.top[0] == 1.0 - 2.0 ** (1 - bits)
    assert rec.bottom[0] == -1.0
    assert rec.top[1] == 0.0
    assert rec.bottom[1] == 0.5


@pytest.mark.parametrize("rate, message", [
    (8000, "sample rate 8000 below 44100 Hz minimum"),
    (400_000, "sample rate 400000 above 384000 Hz maximum"),
], ids=["8000", "400000"])
def test_load_wav_rate_below_minimum_rejected(tmp_path, rate, message):
    path = tmp_path / f"{rate}.wav"
    _write_raw(path, 2, 2, rate, np.zeros(8, dtype="<i2").tobytes())
    with pytest.raises(FormatError, match=message):
        load_wav(path)


def test_load_wav_unusual_rate_warns(tmp_path):
    path = tmp_path / "44k.wav"
    _write_raw(path, 2, 2, 44100, np.zeros(8, dtype="<i2").tobytes())
    with pytest.warns(UserWarning, match="sample rate 44100 Hz is accepted") as record:
        load_wav(path)
    assert record[0].filename == __file__


def test_mono_file_rejected(tmp_path):
    data = np.zeros(100, dtype="<i2")
    path = tmp_path / "mono.wav"
    _write_raw(path, 1, 2, 48000, data.tobytes())
    with pytest.raises(FormatError, match="expected 2 channels, found 1"):
        load_wav(path)


def test_four_channel_file_rejected(tmp_path):
    data = np.zeros(400, dtype="<i2")
    path = tmp_path / "quad.wav"
    _write_raw(path, 4, 2, 48000, data.tobytes())
    with pytest.raises(FormatError, match="expected 2 channels, found 4"):
        load_wav(path)


def test_unsupported_width_rejected(tmp_path):
    path = tmp_path / "w8.wav"
    _write_raw(path, 2, 1, 48000, bytes(64))
    with pytest.raises(FormatError, match="unsupported sample width 8 bits"):
        load_wav(path)


def test_truncated_file_rejected(tmp_path):
    rng = np.random.default_rng(1)
    data = (rng.integers(-1000, 1000, size=4000)).astype("<i2")
    path = tmp_path / "t.wav"
    _write_raw(path, 2, 2, 48000, data.tobytes())
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 1000])
    with pytest.raises(FormatError, match="data chunk shorter than header declares"):
        load_wav(path)


def test_24bit_cut_mid_frame_rejected(tmp_path):
    rng = np.random.default_rng(3)
    rec = StereoRecording(48000, rng.uniform(-1, 1, 500), rng.uniform(-1, 1, 500))
    path = tmp_path / "t24.wav"
    write_wav(rec, path, bit_depth=24)
    raw = path.read_bytes()
    for cut in (1, 2, 4, 6 * 100 + 5):
        path.write_bytes(raw[: len(raw) - cut])
        with pytest.raises(FormatError, match="data chunk shorter than header declares"):
            load_wav(path)


def test_not_a_wav_rejected(tmp_path):
    path = tmp_path / "junk.wav"
    path.write_bytes(b"this is not RIFF data at all" * 4)
    with pytest.raises(FormatError, match="not a readable WAV file"):
        load_wav(path)


def test_missing_file_raises_filenotfound(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_wav(tmp_path / "absent.wav")


def test_silence_roundtrip_is_exact(tmp_path):
    rec = StereoRecording(48000, np.zeros(1000), np.zeros(1000))
    path = tmp_path / "z.wav"
    write_wav(rec, path, bit_depth=16)
    back = load_wav(path)
    assert back.n_samples == 1000
    assert np.all(back.top == 0.0)
    assert np.all(back.bottom == 0.0)


def test_bit_depth_12_rejected(tmp_path):
    rec = StereoRecording(48000, np.zeros(10), np.zeros(10))
    with pytest.raises(FormatError, match="unsupported bit depth 12"):
        write_wav(rec, tmp_path / "x.wav", bit_depth=12)


def test_24bit_roundtrip_quantization_bound(tmp_path):
    # oracle: quantizing to 24 bits cannot move a sample by more than
    # half a step, i.e. 2^-24 < 2^-23; checked over 1e5 random samples
    rng = np.random.default_rng(7)
    n = 100_000
    top = rng.uniform(-1.0, 1.0, n)
    bottom = rng.uniform(-1.0, 1.0, n)
    rec = StereoRecording(192000, top, bottom)
    path = tmp_path / "r24.wav"
    write_wav(rec, path, bit_depth=24)
    back = load_wav(path)
    assert np.max(np.abs(back.top - top)) <= 2.0**-23
    assert np.max(np.abs(back.bottom - bottom)) <= 2.0**-23


@pytest.mark.parametrize("bit_depth", [16, 24, 32])
def test_roundtrip_error_within_one_step(tmp_path, bit_depth):
    rng = np.random.default_rng(bit_depth)
    top = rng.uniform(-1.0, 1.0, 5000)
    bottom = rng.uniform(-1.0, 1.0, 5000)
    rec = StereoRecording(96000, top, bottom)
    path = tmp_path / f"r{bit_depth}.wav"
    write_wav(rec, path, bit_depth=bit_depth)
    back = load_wav(path)
    step = 2.0 ** (1 - bit_depth)
    assert np.max(np.abs(back.top - top)) <= step
    assert np.max(np.abs(back.bottom - bottom)) <= step


def test_channel_order_is_stable(tmp_path):
    top = np.full(64, 0.25)
    bottom = np.full(64, -0.5)
    rec = StereoRecording(48000, top, bottom)
    path = tmp_path / "ord.wav"
    write_wav(rec, path, bit_depth=16)
    back = load_wav(path)
    assert np.allclose(back.top, 0.25, atol=1e-4)
    assert np.allclose(back.bottom, -0.5, atol=1e-4)


@settings(max_examples=30, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        min_size=2,
        max_size=200,
    )
)
def test_roundtrip_property_16bit(tmp_path_factory, values):
    x = np.asarray(values)
    rec = StereoRecording(48000, x, -x)
    path = tmp_path_factory.mktemp("wav") / "p.wav"
    write_wav(rec, path, bit_depth=16)
    back = load_wav(path)
    assert np.max(np.abs(back.top - x)) <= 2.0**-15


def test_recording_invariants():
    with pytest.raises(FormatError, match="channel lengths differ"):
        StereoRecording(48000, np.zeros(5), np.zeros(6))
    with pytest.raises(FormatError, match="below 44100 Hz minimum"):
        StereoRecording(8000, np.zeros(5), np.zeros(5))
    with pytest.raises(FormatError, match="above 384000 Hz maximum"):
        StereoRecording(400_000, np.zeros(5), np.zeros(5))
    with pytest.raises(FormatError, match=r"samples exceed \[-1, 1\]"):
        StereoRecording(48000, np.full(5, 1.5), np.zeros(5))


@pytest.mark.parametrize("channel", ["top", "bottom"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_samples_fail_closed(channel, value):
    # a NaN once passed, and measure_dynamic then returned -max_lag
    # with peak 0.0 instead of failing
    x = np.zeros(1000)
    x[:100] = value
    channels = {"top": np.zeros(1000), "bottom": np.zeros(1000), channel: x}
    with pytest.raises(FormatError, match=r"samples exceed \[-1, 1\]"):
        StereoRecording(48000, **channels)


def test_unusual_rate_warns():
    with pytest.warns(UserWarning) as record:
        StereoRecording(44100, np.zeros(4), np.zeros(4))
    assert record[0].filename == __file__


# segments of a 2 * _BLOCK_FRAMES + 6000 frame recording: one short, one
# longer than a block, one across the second block boundary and one
# ending on the last frame
_N_FRAMES = 2 * _BLOCK_FRAMES + 6000
_SEGMENTS = [
    PhonemeSegment(200, 3000, "AA"),
    PhonemeSegment(3000, _BLOCK_FRAMES + 4000, "S"),
    PhonemeSegment(2 * _BLOCK_FRAMES - 1500, 2 * _BLOCK_FRAMES + 1500, "K"),
    PhonemeSegment(_N_FRAMES - 2500, _N_FRAMES, "T"),
]


@pytest.mark.parametrize("method", [Method.GCC_PHAT, Method.CC])
@pytest.mark.parametrize("bit_depth", [16, 24, 32])
def test_reader_measures_like_load_wav(tmp_path, bit_depth, method):
    # the measuring commands decode each segment from the open file; the
    # result must equal measuring load_wav's whole recording, bit for bit
    rng = np.random.default_rng(bit_depth)
    source = rng.uniform(-0.4, 0.4, _N_FRAMES + 7)
    top = source[:_N_FRAMES] + rng.normal(0.0, 0.01, _N_FRAMES)
    bottom = source[7:] + rng.normal(0.0, 0.01, _N_FRAMES)
    path = tmp_path / "r.wav"
    write_wav(StereoRecording(48000, top, bottom), path, bit_depth=bit_depth)
    whole = load_wav(path)
    with WavReader(path) as reader:
        assert (reader.sample_rate, reader.n_samples) == (48000, _N_FRAMES)
        for seg in _SEGMENTS:
            assert np.array_equal(reader.window(seg.start, seg.end),
                                  np.stack(whole.window(seg.start, seg.end)))
        streamed = measure_dynamic(reader, _SEGMENTS, method=method)
    expected = measure_dynamic(whole, _SEGMENTS, method=method)
    assert streamed.measurements == expected.measurements
    assert [m.delay_samples for m in streamed.measurements] == [7.0] * len(_SEGMENTS)


def test_reader_window_outside_recording_rejected(tmp_path):
    path = tmp_path / "w.wav"
    write_wav(StereoRecording(48000, np.zeros(100), np.zeros(100)), path)
    with WavReader(path) as reader:
        for start, end in ((-1, 10), (10, 101), (20, 10)):
            with pytest.raises(ValueError, match="outside"):
                reader.window(start, end)


def test_huge_declared_payload_rejected_before_allocation(tmp_path):
    # a 1 KB file whose header declares 2^30 - 1 frames: the payload is
    # checked from the file before a buffer of that size exists
    header = b"RIFF" + struct.pack("<I", 0xFFFFFFFF) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 2, 48000, 48000 * 4, 4, 16)
    header += b"data" + struct.pack("<I", 0xFFFFFFFC)
    path = tmp_path / "huge.wav"
    path.write_bytes(header + bytes(1024 - len(header)))
    for load in (load_wav, WavReader):
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="data chunk shorter than header declares"):
                load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20
