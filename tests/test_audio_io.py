import math
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonotdoa.audio_io import StereoRecording, load_wav, write_wav
from phonotdoa.errors import FormatError


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


def test_int16_full_scale_normalization(tmp_path):
    data = np.array([32767, -32768, 0, 16384], dtype="<i2")  # two frames
    path = tmp_path / "fs.wav"
    _write_raw(path, 2, 2, 48000, data.tobytes())
    rec = load_wav(path)
    assert rec.top[0] == pytest.approx(32767 / 32768)
    assert rec.bottom[0] == pytest.approx(-1.0)
    assert rec.top[1] == 0.0
    assert rec.bottom[1] == pytest.approx(0.5)


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
    with pytest.warns(UserWarning):
        StereoRecording(44100, np.zeros(4), np.zeros(4))
