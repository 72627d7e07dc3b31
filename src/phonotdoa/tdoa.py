"""Per-segment delay estimation between the two channels.

Sign convention: delay_samples > 0 means the sound arrives at the TOP
microphone later (the bottom mic leads). With the mouth near the bottom
mic, live speech therefore produces positive delays.

Correlations are computed in the frequency domain on mean-removed
windows. CC transforms the whole window at the next power of two
>= window length + max_lag, which keeps the circular wraparound outside
the searched lag range. GCC-PHAT (Knapp & Carter, IEEE TASSP 1976)
averages sub-windows and picks its FFT length per sub-window: the next
power of two >= sub-window length + max_lag. Each window is centred by
its own mean straight into the rows of one zero-filled
(2, sub-windows, FFT length) buffer, Hann-weighted in place with a
cached window and transformed without a further copy.

A measurement reads only the frames inside its segments: it asks the
recording for each segment's window(start, end), which a StereoRecording
answers with views of its rows and an open audio_io.WavReader by
decoding those frames from the file, so measuring a file holds one
segment's samples at a time.

fork_map is the package's one process pool, used by run_experiment for
its renders and by `enroll` for its segments. Every job index goes to
one ticket pipe before any worker forks; each process draws the next
ticket as it finishes a job and sends all its results back as one
pickle. Workers are bare forks, so the parent loads neither
multiprocessing nor concurrent.futures. `enroll` computes in this
process too (`here`); run_experiment leaves it idle.
"""

from __future__ import annotations

import enum
import functools
import math
import os
import pickle
import select
import sys
from dataclasses import dataclass

import numpy as np

from .audio_io import StereoRecording, WavReader
from .errors import DegenerateSignalError, InvalidPoseError
from .geometry import REFERENCE_POSE, SPEED_OF_SOUND
from .segmentation import PhonemeSegment

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


# the handset of geometry.REFERENCE_POSE
DEFAULT_DEVICE = DeviceSpec(mic_spacing_m=REFERENCE_POSE.l, name="reference")


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


def _checked_windows(a, b, max_lag: int):
    """Both windows as float64 arrays; an empty window raises
    DegenerateSignalError, a lag range the windows cannot hold ValueError."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise DegenerateSignalError("empty correlation window")
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    if max_lag >= max(a.size, b.size):
        raise ValueError("max_lag must be smaller than the window length")
    return a, b


def _check_variance(x: np.ndarray, sum_sq: float) -> float:
    """The centred norm of window x from its sum of squared deviations;
    a zero-variance window raises DegenerateSignalError."""
    norm = math.sqrt(sum_sq)
    if norm <= _RELATIVE_VARIANCE_FLOOR * max(x.max(), -x.min()) * math.sqrt(x.size):
        raise DegenerateSignalError("zero-variance correlation window")
    return norm


def _centered(a, b, max_lag: int):
    """Write each window minus its mean into a zero-padded (2, longer
    window) buffer; return the buffer and the two centered norms.
    Empty and zero-variance windows raise DegenerateSignalError."""
    a, b = _checked_windows(a, b, max_lag)
    buf = np.zeros((2, max(a.size, b.size)))
    norms = []
    for x, row in zip((a, b), buf):
        centered = np.subtract(x, x.mean(), out=row[: x.size])
        norms.append(_check_variance(x, np.sum(centered * centered)))
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


# Hann windows by sub-window length. A sub-window is shorter than 1.5 *
# max(PHAT_SEGMENT_FACTOR * max_lag, 256) samples, under 18 KB at 192 kHz
# with the reference mic spacing, so 64 entries stay near 1 MB. Rendered
# phoneme lengths are multiples of 256 samples: 387 segments used 38.
@functools.lru_cache(maxsize=64)
def _hann(length: int) -> np.ndarray:
    window = np.hanning(length)
    window.flags.writeable = False  # shared by every caller
    return window


def gcc_phat(a, b, max_lag: int) -> np.ndarray:
    """Phase-transform weighted cross-correlation by lag.

    The cross-spectrum is estimated by averaging Hann-windowed
    sub-windows of the input, then divided by its magnitude, so every
    retained bin contributes unit power regardless of the source
    spectrum; that sharpens the delay peak and suppresses multipath
    smearing. Bins whose magnitude falls below PHAT_SPECTRAL_FLOOR times
    the peak magnitude are zero-weighted.
    """
    a, b = _checked_windows(a, b, max_lag)
    length = min(a.size, b.size)
    n_seg = max(1, length // max(PHAT_SEGMENT_FACTOR * max_lag, 256))
    seg = length // n_seg
    n = _fft_length(seg, max_lag)
    # rows zero-padded to the FFT length up front, so rfft makes no padded copy
    frames = np.zeros((2, n_seg, n))
    for x, rows in zip((a, b), frames):
        mean = x.mean()
        filled = np.subtract(
            x[: n_seg * seg].reshape(n_seg, seg), mean, out=rows[:, :seg]
        )
        # the variance check covers the whole window: the rows plus the
        # samples past the last full sub-window. einsum, not np.dot: a
        # BLAS dot starts threads, which made every process of
        # fork_map's pool (corpus renders, enroll segments) 5x slower
        tail = x[n_seg * seg :] - mean
        _check_variance(
            x, np.einsum("ij,ij->", filled, filled) + np.einsum("i,i->", tail, tail)
        )
    if n_seg > 1:
        frames[:, :, :seg] *= _hann(seg)
    spec_a, spec_b = np.fft.rfft(frames, axis=-1)
    np.conjugate(spec_a, out=spec_a)
    spec_a *= spec_b
    spec = spec_a.sum(axis=0)
    mag = np.abs(spec)
    peak = mag.max()
    if peak <= 0.0:
        raise DegenerateSignalError("all-zero cross-spectrum")
    weighted = np.divide(
        spec, mag, out=np.zeros_like(spec), where=mag > PHAT_SPECTRAL_FLOOR * peak
    )
    return _extract_lags(np.fft.irfft(weighted, n), max_lag)


def max_lag_for_device(device: DeviceSpec, sample_rate: int) -> int:
    """Physically admissible lag bound: path difference <= mic spacing."""
    return int(math.ceil(device.mic_spacing_m / SPEED_OF_SOUND * sample_rate)) + MAX_LAG_MARGIN


def _parabolic_offset(y_left: float, y_center: float, y_right: float) -> float:
    denom = y_left - 2.0 * y_center + y_right
    if denom == 0.0:
        return 0.0
    return float(min(max(0.5 * (y_left - y_right) / denom, -0.5), 0.5))


def estimate_tdoa(
    recording: StereoRecording | WavReader,
    segment: PhonemeSegment,
    method: Method = Method.GCC_PHAT,
    device: DeviceSpec = DEFAULT_DEVICE,
) -> TdoaMeasurement:
    """Delay of one phoneme segment between the two channels.

    recording is a StereoRecording or an open WavReader: anything with
    sample_rate, n_samples and window(start, end). The search window is
    bounded by the device geometry: lags beyond
    mic_spacing / SPEED_OF_SOUND only admit noise peaks. delay_samples
    is the integer argmax; delay_subsample adds the parabolic refinement.
    """
    max_lag = max_lag_for_device(device, recording.sample_rate)
    if segment.length < 2 * max_lag:
        raise DegenerateSignalError(
            f"segment length {segment.length} < {2 * max_lag} samples "
            f"needed for max_lag {max_lag}"
        )
    if segment.end > recording.n_samples:
        raise DegenerateSignalError("segment exceeds recording length")
    b, a = recording.window(segment.start, segment.end)  # (top, bottom)
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
    recording: StereoRecording | WavReader,
    segments,
    method: Method = Method.GCC_PHAT,
    device: DeviceSpec = DEFAULT_DEVICE,
) -> TdoaDynamic:
    """Estimate every segment of a StereoRecording or an open WavReader
    and reassemble in segment order."""
    measurements = [
        estimate_tdoa(recording, seg, method=method, device=device) for seg in segments
    ]
    return TdoaDynamic(
        measurements=tuple(measurements),
        sample_rate=recording.sample_rate,
        device=device,
    )


def usable_cpus() -> int:
    """The CPUs this process may run on: fork_map's default worker count."""
    return len(os.sched_getaffinity(0))


# A ticket is a 4-byte job index. All tickets go to one pipe in one write
# before any worker forks. They fit in select.PIPE_BUF bytes, which a pipe
# holds even at a one-page capacity, so that write neither blocks nor
# splits, concurrent 4-byte reads never split a ticket, and one read
# drains the pipe. Above MAX_TICKETS jobs a ticket names a run of jobs.
_TICKET_BYTES = 4
MAX_TICKETS = select.PIPE_BUF // _TICKET_BYTES


def fork_map(fn, jobs: list, workers=None, here=False) -> list:
    """[fn(job) for job in jobs], in order, computed in `workers` processes
    (default: usable_cpus(), at most one per job); with one, in this
    process. Otherwise all are forked workers, or all but this one when
    `here` is set, and each draws the next job's ticket as it finishes
    one. A process stops at its first failing job and drains the pipe.
    The lowest-indexed failure, the one a single process meets first, is
    raised here with its own class."""
    if workers is None:
        workers = usable_cpus()
    workers = min(workers, len(jobs))
    if workers <= 1:
        return list(map(fn, jobs))
    run = -(-len(jobs) // MAX_TICKETS)
    # a fork copies unflushed output; flush it once, here
    sys.stdout.flush()
    sys.stderr.flush()
    tickets, write_end = os.pipe()
    children = []  # (pid, result pipe)
    try:
        # closed before any fork, so a drained pipe reads as its end
        with open(write_end, "wb", buffering=0) as pipe:
            pipe.write(b"".join(
                k.to_bytes(_TICKET_BYTES, "little") for k in range(0, len(jobs), run)
            ))
        for _ in range(workers - 1 if here else workers):
            result_read, result_write = os.pipe()
            # fork: a worker starts from this process's imported modules in
            # milliseconds, where a fresh interpreter takes about a second
            try:
                pid = os.fork()
            except OSError:
                os.close(result_read)
                os.close(result_write)
                raise
            if pid == 0:
                for _, pipe in children:
                    pipe.close()
                os.close(result_read)
                _run_worker(fn, jobs, tickets, run, result_write)
            os.close(result_write)
            children.append((pid, os.fdopen(result_read, "rb")))
        shares = [_draw(fn, jobs, tickets, run)] if here else []
        for pid, pipe in children:
            try:
                shares.append(pickle.load(pipe))
            except (EOFError, pickle.UnpicklingError):
                raise ChildProcessError(f"worker process {pid} exited without a result") from None
    finally:
        # an early exit here stops every worker at its current ticket
        os.read(tickets, select.PIPE_BUF)
        os.close(tickets)
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)
    failures = [failure for _, failure in shares if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = dict(pair for done, _ in shares for pair in done)
    return [results[k] for k in range(len(jobs))]


def _draw(fn, jobs: list, tickets: int, run: int) -> tuple:
    """Compute the runs of `run` jobs that this process draws from the
    ticket pipe, until it is empty or a job fails. Returns the (index,
    result) pairs and the failure as (index, exception) or None; a
    failure drains the pipe."""
    done = []
    while ticket := os.read(tickets, _TICKET_BYTES):
        first = int.from_bytes(ticket, "little")
        for k in range(first, min(first + run, len(jobs))):
            try:
                done.append((k, fn(jobs[k])))
            except Exception as exc:
                os.read(tickets, select.PIPE_BUF)
                return done, (k, exc)
    return done, None


def _run_worker(fn, jobs: list, tickets: int, run: int, result_write: int) -> None:
    """In a forked worker: draw jobs, write what _draw returns as one
    pickle to `result_write`, and exit without returning to the caller's
    code."""
    code = 1
    try:
        done, failure = _draw(fn, jobs, tickets, run)
        try:
            data = pickle.dumps((done, failure))
        except Exception as exc:
            # what cannot be pickled fails in its place: at this worker's
            # failing job, or after every job
            data = pickle.dumps(([], (failure[0] if failure else len(jobs), exc)))
        with os.fdopen(result_write, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)
