"""Per-segment delay estimation between the two channels.

Sign convention: delay_samples > 0 means the sound arrives at the TOP
microphone later (the bottom mic leads). With the mouth near the bottom
mic, live speech therefore produces positive delays.

Correlations are computed in the frequency domain on mean-removed
windows. CC transforms the whole window at the next power of two
>= window length + max_lag, which keeps the circular wraparound outside
the searched lag range. GCC-PHAT averages sub-windows and picks its FFT
length per sub-window: the next power of two >= sub-window length +
max_lag.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .audio_io import StereoRecording
from .errors import DegenerateSignalError, InvalidPoseError
from .segmentation import PhonemeSegment

SPEED_OF_SOUND = 340.0  # m/s

# search margin beyond the geometric maximum lag
MAX_LAG_MARGIN = 8

# Spectral bins below this fraction of the peak cross-spectrum
# magnitude get zero weight in the phase transform. Besides guarding
# the division, this suppresses noise-only bins: at high sample rates
# the excitation occupies a small part of the spectrum, and giving the
# remaining bins unit weight buries the delay peak. Any coherent
# structure survives (a 0.5-amplitude multipath comb dips to 0.5 of
# peak, far above the floor).
PHAT_SPECTRAL_FLOOR = 1e-3

# a window is degenerate when its deviations from the mean are at
# floating-point-residue level relative to its own magnitude
_RELATIVE_VARIANCE_FLOOR = 1e-12


class Method(enum.Enum):
    CC = "cc"
    GCC_PHAT = "gcc_phat"


@dataclass(frozen=True)
class DeviceSpec:
    """Microphone pair geometry of a handset."""

    mic_spacing_m: float
    name: str = "generic"

    def __post_init__(self):
        if not 0.05 <= self.mic_spacing_m <= 0.30:
            raise InvalidPoseError(
                f"mic spacing {self.mic_spacing_m} m outside [0.05, 0.30]"
            )


# spacings measured on the handsets used to anchor the defaults
NOTE3 = DeviceSpec(mic_spacing_m=0.151, name="note3")
NOTE5 = DeviceSpec(mic_spacing_m=0.153, name="note5")
S5 = DeviceSpec(mic_spacing_m=0.141, name="s5")
DEFAULT_DEVICE = DeviceSpec(mic_spacing_m=0.15, name="reference")


@dataclass(frozen=True)
class TdoaMeasurement:
    label: str
    delay_samples: float  # integer argmax lag
    peak_value: float
    method: Method
    delay_subsample: float = 0.0  # parabolic refinement around the peak

    def scaled(self, factor: float) -> "TdoaMeasurement":
        return TdoaMeasurement(
            label=self.label,
            delay_samples=self.delay_samples * factor,
            peak_value=self.peak_value,
            method=self.method,
            delay_subsample=self.delay_subsample * factor,
        )


@dataclass(frozen=True)
class TdoaDynamic:
    """Ordered per-phoneme delay sequence: the liveness signature."""

    measurements: tuple
    sample_rate: int
    device: DeviceSpec

    def __post_init__(self):
        object.__setattr__(self, "measurements", tuple(self.measurements))

    def __len__(self) -> int:
        return len(self.measurements)

    @property
    def labels(self) -> tuple:
        return tuple(m.label for m in self.measurements)

    @property
    def delays(self) -> np.ndarray:
        return np.array([m.delay_samples for m in self.measurements], dtype=float)


def _centered(a, b, max_lag: int):
    """Write each window minus its mean into a zero-padded (2, longer
    window) buffer; return the buffer and the two centered norms.
    Empty and zero-variance windows raise DegenerateSignalError."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise DegenerateSignalError("empty correlation window")
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    if max_lag >= max(a.size, b.size):
        raise ValueError("max_lag must be smaller than the window length")
    buf = np.zeros((2, max(a.size, b.size)))
    norms = []
    for x, row in zip((a, b), buf):
        centered = np.subtract(x, x.mean(), out=row[: x.size])
        norm = math.sqrt(np.sum(centered * centered))
        if norm <= _RELATIVE_VARIANCE_FLOOR * max(x.max(), -x.min()) * math.sqrt(x.size):
            raise DegenerateSignalError("zero-variance correlation window")
        norms.append(norm)
    return buf, norms


def _fft_length(span: int, max_lag: int) -> int:
    # next power of two that keeps circular wraparound out of +/-max_lag
    return 1 << int(math.ceil(math.log2(span + max_lag)))


def _extract_lags(full: np.ndarray, max_lag: int) -> np.ndarray:
    # full[d] holds lag d (mod N); order output as d = -max_lag..+max_lag
    return np.concatenate([full[-max_lag:], full[: max_lag + 1]])


def normalized_cross_correlation(a, b, max_lag: int) -> np.ndarray:
    """Mean-removed, variance-normalized cross-correlation by lag.

    Returns values for lags d in [-max_lag, +max_lag]; entry at index
    d + max_lag is the normalized sum of a[i] * b[i + d]. Values lie in
    [-1, 1] up to numerical tolerance; a positive argmax means b lags a.
    """
    buf, (na, nb) = _centered(a, b, max_lag)
    n = _fft_length(buf.shape[1], max_lag)
    spec_a, spec_b = np.fft.rfft(buf, n)
    full = np.fft.irfft(np.conj(spec_a) * spec_b, n)
    return _extract_lags(full, max_lag) / (na * nb)


# Sub-window length for the averaged cross-spectrum estimate, as a
# multiple of max_lag. A single long snapshot makes the phase transform
# wobble by +/-1 sample at moderate SNR (low-magnitude bins get full
# weight with noisy phase); averaging a few sub-windows stabilizes the
# per-bin phase while each sub-window stays long against the lag range.
PHAT_SEGMENT_FACTOR = 16


def gcc_phat(a, b, max_lag: int, spectral_floor: float = PHAT_SPECTRAL_FLOOR) -> np.ndarray:
    """Phase-transform weighted cross-correlation by lag.

    The cross-spectrum is estimated by averaging Hann-windowed
    sub-windows of the input, then divided by its magnitude, so every
    retained bin contributes unit power regardless of the source
    spectrum; that sharpens the delay peak and suppresses multipath
    smearing. Bins whose magnitude falls below spectral_floor times the
    peak magnitude are zero-weighted.
    """
    buf, _ = _centered(a, b, max_lag)
    length = min(len(a), len(b))
    n_seg = max(1, length // max(PHAT_SEGMENT_FACTOR * max_lag, 256))
    seg = length // n_seg
    frames = buf[:, : n_seg * seg].reshape(2, n_seg, seg)  # a view: windowed in place
    if n_seg > 1:
        frames *= np.hanning(seg)
    n = _fft_length(seg, max_lag)
    spec_a, spec_b = np.fft.rfft(frames, n, axis=-1)
    np.conjugate(spec_a, out=spec_a)
    spec_a *= spec_b
    spec = spec_a.sum(axis=0)
    mag = np.abs(spec)
    peak = mag.max()
    if peak <= 0.0:
        raise DegenerateSignalError("all-zero cross-spectrum")
    weighted = np.divide(
        spec, mag, out=np.zeros_like(spec), where=mag > spectral_floor * peak
    )
    return _extract_lags(np.fft.irfft(weighted, n), max_lag)


def max_lag_for_device(
    device: DeviceSpec, sample_rate: int, c: float = SPEED_OF_SOUND
) -> int:
    """Physically admissible lag bound: path difference <= mic spacing."""
    return int(math.ceil(device.mic_spacing_m / c * sample_rate)) + MAX_LAG_MARGIN


def _parabolic_offset(y_left: float, y_center: float, y_right: float) -> float:
    denom = y_left - 2.0 * y_center + y_right
    if denom == 0.0:
        return 0.0
    return float(np.clip(0.5 * (y_left - y_right) / denom, -0.5, 0.5))


def estimate_tdoa(
    recording: StereoRecording,
    segment: PhonemeSegment,
    method: Method = Method.GCC_PHAT,
    device: DeviceSpec = DEFAULT_DEVICE,
    c: float = SPEED_OF_SOUND,
) -> TdoaMeasurement:
    """Delay of one phoneme segment between the two channels.

    The search window is bounded by the device geometry: lags beyond
    mic_spacing / c only admit noise peaks. delay_samples is the integer
    argmax; delay_subsample adds the parabolic refinement.
    """
    max_lag = max_lag_for_device(device, recording.sample_rate, c)
    if segment.length < 2 * max_lag:
        raise DegenerateSignalError(
            f"segment length {segment.length} < {2 * max_lag} samples "
            f"needed for max_lag {max_lag}"
        )
    if segment.end > recording.n_samples:
        raise DegenerateSignalError("segment exceeds recording length")
    a = recording.bottom[segment.start : segment.end]
    b = recording.top[segment.start : segment.end]
    if method == Method.CC:
        corr = normalized_cross_correlation(a, b, max_lag)
    elif method == Method.GCC_PHAT:
        corr = gcc_phat(a, b, max_lag)
    else:
        raise ValueError(f"unknown method {method!r}")
    idx = int(np.argmax(corr))
    delay = idx - max_lag
    offset = 0.0
    if 0 < idx < len(corr) - 1:
        offset = _parabolic_offset(corr[idx - 1], corr[idx], corr[idx + 1])
    return TdoaMeasurement(
        label=segment.label,
        delay_samples=float(delay),
        peak_value=float(corr[idx]),
        method=method,
        delay_subsample=float(delay + offset),
    )


def measure_dynamic(
    recording: StereoRecording,
    segments,
    method: Method = Method.GCC_PHAT,
    device: DeviceSpec = DEFAULT_DEVICE,
    c: float = SPEED_OF_SOUND,
) -> TdoaDynamic:
    """Estimate every segment and reassemble in segment order."""
    measurements = [
        estimate_tdoa(recording, seg, method=method, device=device, c=c)
        for seg in segments
    ]
    return TdoaDynamic(
        measurements=tuple(measurements),
        sample_rate=recording.sample_rate,
        device=device,
    )
