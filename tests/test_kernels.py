"""The batched hot-path kernels against straightforward reference forms.

Each reference below is the plain per-bin / per-frame / per-byte form
of a kernel: two full complex exps for the per-mic phase shifts, one
rfft pair per GCC-PHAT sub-window, a direct-sum correlation for CC,
triplet assembly for 24-bit PCM, an interleaved divide for WAV scaling
and one draw per harmonic. The batched kernels must agree with them to
floating-point rounding (bit-exact where no arithmetic is reordered).
"""

import math
import wave

import numpy as np
import pytest
from scipy.fft import next_fast_len

from phonotdoa.audio_io import StereoRecording, _decode_pcm, load_wav, write_wav
from phonotdoa.errors import DegenerateSignalError
from phonotdoa.simulator import (
    VOICED_MAX_HARMONIC_HZ,
    _delayed_pair,
    _harmonic_excitation,
    _noise_excitation,
    _tukey,
)
from phonotdoa.tdoa import (
    PHAT_SEGMENT_FACTOR,
    PHAT_SPECTRAL_FLOOR,
    _extract_lags,
    gcc_phat,
    normalized_cross_correlation,
)


def _delayed_pair_reference(exc, tau_top, tau_bottom, pad=None):
    """Two full-length exps at the kernel's 5-smooth pad, or at `pad`."""
    out_len = len(exc) + int(math.ceil(max(tau_top, tau_bottom))) + 64
    pad = pad or next_fast_len(out_len + 16, real=True)
    spectrum = np.fft.rfft(exc, pad)
    k = np.arange(len(spectrum))
    top = np.fft.irfft(spectrum * np.exp(-2j * np.pi * k * tau_top / pad), pad)
    bottom = np.fft.irfft(spectrum * np.exp(-2j * np.pi * k * tau_bottom / pad), pad)
    return top[:out_len], bottom[:out_len]


def _gcc_phat_reference(a, b, max_lag):
    a = a - a.mean()
    b = b - b.mean()
    length = min(len(a), len(b))
    n_seg = max(1, length // max(PHAT_SEGMENT_FACTOR * max_lag, 256))
    seg = length // n_seg
    n = 1 << int(math.ceil(math.log2(seg + max_lag)))
    window = np.hanning(seg) if n_seg > 1 else np.ones(seg)
    spec = np.zeros(n // 2 + 1, dtype=complex)
    for i in range(n_seg):
        lo, hi = i * seg, (i + 1) * seg
        spec += np.conj(np.fft.rfft(a[lo:hi] * window, n)) * np.fft.rfft(
            b[lo:hi] * window, n
        )
    mag = np.abs(spec)
    peak = mag.max()
    if peak <= 0.0:
        raise DegenerateSignalError("all-zero cross-spectrum")
    keep = mag > PHAT_SPECTRAL_FLOOR * peak
    weighted = np.zeros_like(spec)
    weighted[keep] = spec[keep] / mag[keep]
    return _extract_lags(np.fft.irfft(weighted, n), max_lag)


def _ncc_reference(a, b, max_lag):
    a = a - a.mean()
    b = b - b.mean()
    # np.correlate(b, a, "full")[k] sums b[i + k - (len(a) - 1)] * a[i]
    full = np.correlate(b, a, "full")
    lags = np.arange(-max_lag, max_lag + 1) + len(a) - 1
    return full[lags] / np.sqrt(np.sum(a * a) * np.sum(b * b))


def _decode_24_reference(raw):
    b = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3).astype(np.int64)
    val = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
    return np.where(val & 0x800000, val - 0x1000000, val)


def _harmonic_excitation_reference(rng, n, sample_rate, f0):
    spectrum = np.zeros(n // 2 + 1, dtype=complex)
    n_harm = max(1, int(min(VOICED_MAX_HARMONIC_HZ, 0.45 * sample_rate) / f0))
    for h in range(1, n_harm + 1):
        k = int(round(h * f0 * n / sample_rate))
        if 1 <= k < len(spectrum) - 1:
            phase = rng.uniform(0.0, 2.0 * math.pi)
            spectrum[k] += (1.0 / h) * np.exp(1j * phase)
    return np.fft.irfft(spectrum, n)


@pytest.mark.parametrize("n", [256, 4096, 19200, 30720])
def test_delayed_pair_matches_two_exp_reference(n):
    rng = np.random.default_rng(n)
    exc = rng.standard_normal(n)
    for tau_top, tau_bottom in rng.uniform(0.0, 200.0, size=(8, 2)):
        top, bottom = _delayed_pair(exc, tau_top, tau_bottom)
        ref_top, ref_bottom = _delayed_pair_reference(exc, tau_top, tau_bottom)
        assert top.shape == ref_top.shape and bottom.shape == ref_bottom.shape
        assert np.max(np.abs(top - ref_top)) <= 1e-12
        assert np.max(np.abs(bottom - ref_bottom)) <= 1e-12


@pytest.mark.parametrize("n", [15360, 19200, 23040, 30720])
def test_delayed_pair_pad_matches_power_of_two_reference(n):
    # the renderer's excitations are Tukey-tapered, so their shifted
    # copies do not depend on how far past the signal the FFT pads
    rng = np.random.default_rng(n)
    for exc in (
        _harmonic_excitation(rng, n, 192000, 150.0),
        _noise_excitation(rng, n, 192000, (1500.0, 9000.0)),
    ):
        exc = exc * _tukey(n)
        for tau_top, tau_bottom in rng.uniform(0.0, 200.0, size=(4, 2)):
            out_len = n + int(math.ceil(max(tau_top, tau_bottom))) + 64
            pow2 = 1 << int(math.ceil(math.log2(out_len + 16)))
            got = _delayed_pair(exc, tau_top, tau_bottom)
            ref = _delayed_pair_reference(exc, tau_top, tau_bottom, pad=pow2)
            assert np.max(np.abs(got - np.stack(ref))) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("length", [300, 2048, 9000, 19200, 30721])
@pytest.mark.parametrize("max_lag", [10, 93])
def test_gcc_phat_matches_looped_reference(length, max_lag):
    rng = np.random.default_rng(length + max_lag)
    a = rng.standard_normal(length)
    b = np.roll(a, 7) + 0.3 * rng.standard_normal(length)
    got = gcc_phat(a, b, max_lag)
    want = _gcc_phat_reference(a, b, max_lag)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("len_a, len_b", [(300, 300), (2048, 2000), (9000, 9100)])
@pytest.mark.parametrize("max_lag", [10, 93])
def test_ncc_matches_direct_sum_reference(len_a, len_b, max_lag):
    rng = np.random.default_rng(len_a + max_lag)
    a = rng.standard_normal(len_a) + 0.5
    b = rng.standard_normal(len_b) - 0.2
    n = min(len_a, len_b)
    b[7:n] += 0.6 * a[: n - 7]
    got = normalized_cross_correlation(a, b, max_lag)
    want = _ncc_reference(a, b, max_lag)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("bits", [16, 24, 32])
def test_load_wav_equals_interleaved_divide(tmp_path, bits):
    rng = np.random.default_rng(bits)
    top = rng.uniform(-1.0, 1.0, 5001)
    bottom = rng.uniform(-1.0, 1.0, 5001)
    top[:3] = bottom[3:6] = (-1.0, 1.0, 0.0)
    write_wav(StereoRecording(48000, top, bottom), tmp_path / "r.wav", bit_depth=bits)
    got = load_wav(tmp_path / "r.wav")
    with wave.open(str(tmp_path / "r.wav"), "rb") as w:
        raw = w.readframes(w.getnframes())
    interleaved = _decode_pcm(raw, bits // 8).reshape(-1, 2) / 2 ** (bits - 1)
    for row, want in ((got.top, interleaved[:, 0]), (got.bottom, interleaved[:, 1])):
        assert row.flags.c_contiguous
        assert row.tobytes() == want.tobytes()


def test_decode_24bit_is_bit_identical_to_triplets():
    rng = np.random.default_rng(24)
    boundary = bytes.fromhex("000000" "ffff7f" "000080" "ffffff")
    for raw in (boundary, boundary + rng.bytes(3 * 10_001), rng.bytes(3 * 4096) + boundary):
        got = _decode_pcm(raw, 3)
        want = _decode_24_reference(raw)
        assert np.array_equal(got, want)
    assert _decode_pcm(boundary, 3).tolist() == [0, 0x7FFFFF, -0x800000, -1]


@pytest.mark.parametrize("n", [256, 2560, 19200])
@pytest.mark.parametrize("f0", [105.0, 161.3, 225.0])
def test_harmonic_excitation_matches_loop(n, f0):
    got_rng = np.random.default_rng(5)
    want_rng = np.random.default_rng(5)
    got = _harmonic_excitation(got_rng, n, 192000, f0)
    want = _harmonic_excitation_reference(want_rng, n, 192000, f0)
    assert np.array_equal(got, want)
    # the same number of draws leaves both streams at the same point
    assert got_rng.random() == want_rng.random()
