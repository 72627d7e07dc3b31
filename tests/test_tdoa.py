import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonotdoa import tdoa
from phonotdoa.audio_io import StereoRecording
from phonotdoa.errors import DegenerateSignalError
from phonotdoa.segmentation import PhonemeSegment
from phonotdoa.tdoa import (
    DEFAULT_DEVICE,
    DeviceSpec,
    Method,
    estimate_tdoa,
    fork_map,
    gcc_phat,
    max_lag_for_device,
    measure_dynamic,
    normalized_cross_correlation,
)

from devices import NOTE3, NOTE5, S5
from pure_shift import synthesize_pure_shift


def _band_noise(n, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    spec = np.fft.rfft(x)
    freqs = np.fft.rfftfreq(n, 1 / 192000)
    spec[(freqs < 100) | (freqs > 8000)] = 0
    return np.fft.irfft(spec, n)


def _shifted(x, lag):
    out = np.zeros_like(x)
    if lag >= 0:
        out[lag:] = x[: len(x) - lag]
    else:
        out[: len(x) + lag] = x[-lag:]
    return out


def test_self_correlation_peaks_at_zero_with_value_one():
    a = _band_noise(4096)
    corr = normalized_cross_correlation(a, a, 50)
    assert np.argmax(corr) == 50
    assert corr[50] == pytest.approx(1.0, abs=1e-9)
    assert np.max(corr) <= 1.0 + 1e-9
    assert np.min(corr) >= -1.0 - 1e-9


def test_cc_explicit_shift_argmax():
    a = _band_noise(4096, seed=3)
    b = _shifted(a, 13)
    corr = normalized_cross_correlation(a, b, 40)
    assert np.argmax(corr) - 40 == 13


def test_cc_constant_signal_degenerate():
    a = np.full(1024, 0.3)
    b = _band_noise(1024)
    with pytest.raises(DegenerateSignalError, match="zero-variance correlation window"):
        normalized_cross_correlation(a, b, 40)
    with pytest.raises(DegenerateSignalError, match="zero-variance correlation window"):
        gcc_phat(a, b, 40)


@pytest.mark.parametrize("window", [np.full(3000, 0.3), np.zeros(3000)], ids=["constant", "zeros"])
@pytest.mark.parametrize("side", ["a", "b"])
def test_gcc_phat_degenerate_window(window, side):
    other = _band_noise(3100)
    a, b = (window, other) if side == "a" else (other, window)
    with pytest.raises(DegenerateSignalError, match="zero-variance correlation window"):
        gcc_phat(a, b, 40)


def test_gcc_phat_variance_past_last_sub_window_counts():
    # at max_lag 40 the common 3000 samples make 4 sub-windows of 750, so
    # b's last 100 samples sit in no sub-window but still count
    a = _band_noise(3000)
    b = np.full(3100, 0.3)
    b[3000:] += _band_noise(100)
    assert gcc_phat(a, b, 40).shape == (81,)


def test_cc_empty_window_degenerate():
    with pytest.raises(DegenerateSignalError, match="empty correlation window"):
        normalized_cross_correlation(np.array([]), np.array([]), 1)


def test_max_lag_validation():
    a = _band_noise(64)
    with pytest.raises(ValueError):
        normalized_cross_correlation(a, a, 64)
    with pytest.raises(ValueError):
        gcc_phat(a, a, 0)


def test_phat_shift_argmax_and_sharpness():
    a = _band_noise(4096, seed=5)
    b = _shifted(a, 13)
    cc = normalized_cross_correlation(a, b, 40)
    ph = gcc_phat(a, b, 40)
    assert np.argmax(ph) - 40 == 13

    def peak_to_second(corr, guard=5):
        i = int(np.argmax(corr))
        mask = np.ones(len(corr), bool)
        mask[max(0, i - guard) : i + guard + 1] = False
        return corr[i] / np.max(corr[mask])

    assert peak_to_second(ph) > peak_to_second(cc)


def test_phat_multipath_robustness_single_case():
    a, b = synthesize_pure_shift(4096, 13, snr_db=30, seed=11, echo=(50, 0.5))
    ph = gcc_phat(a, b, 94)
    assert abs((np.argmax(ph) - 94) - 13) <= 1


def test_phat_identical_inputs():
    a = _band_noise(2048, seed=9)
    ph = gcc_phat(a, a, 30)
    assert np.argmax(ph) == 30


def test_device_spec_bounds():
    with pytest.raises(Exception):
        DeviceSpec(mic_spacing_m=0.01)
    assert NOTE3.mic_spacing_m == pytest.approx(0.151)
    assert NOTE5.mic_spacing_m == pytest.approx(0.153)
    assert S5.mic_spacing_m == pytest.approx(0.141)


def test_max_lag_formula():
    # ceil(0.15 / 340 * 192000) + 8 = 85 + 8
    assert max_lag_for_device(DEFAULT_DEVICE, 192000) == 93
    assert max_lag_for_device(DEFAULT_DEVICE, 96000) == 51


def _recording_with_shift(lag_bottom, n=20000, seed=0, fs=192000):
    """bottom delayed by lag_bottom relative to top."""
    src = 0.4 * _band_noise(n, seed=seed) / np.max(np.abs(_band_noise(n, seed=seed)))
    top = src
    bottom = _shifted(src, lag_bottom)
    return StereoRecording(fs, top, bottom)


def test_estimate_identical_channels_zero_delay():
    rec = _recording_with_shift(0)
    seg = PhonemeSegment(start=1000, end=18000, label="AA")
    m = estimate_tdoa(rec, seg)
    assert m.delay_samples == 0.0
    assert m.label == "AA"
    assert m.method == Method.GCC_PHAT


def test_sign_convention_bottom_delayed_gives_negative():
    # bottom delayed by 27 means the top mic leads: delay must be -27
    rec = _recording_with_shift(27)
    seg = PhonemeSegment(start=2000, end=18000, label="AA")
    for method in (Method.CC, Method.GCC_PHAT):
        m = estimate_tdoa(rec, seg, method=method)
        assert m.delay_samples == -27.0


def test_estimate_segment_too_short():
    rec = _recording_with_shift(0)
    seg = PhonemeSegment(start=0, end=100, label="AA")
    with pytest.raises(DegenerateSignalError, match="segment length 100 < .* samples needed"):
        estimate_tdoa(rec, seg)


def test_estimate_antisymmetry_for_pure_shifts():
    for lag in (-31, -5, 8, 44):
        rec = _recording_with_shift(lag, seed=4)
        swapped = StereoRecording(rec.sample_rate, rec.bottom, rec.top)
        seg = PhonemeSegment(start=2000, end=18000, label="AA")
        m1 = estimate_tdoa(rec, seg)
        m2 = estimate_tdoa(swapped, seg)
        assert m1.delay_samples == -m2.delay_samples


@pytest.mark.parametrize("gain", [0.01, 0.5, 7.0])
def test_gain_invariance(gain):
    a = _band_noise(4096, seed=6)
    b = _shifted(a, -17)
    for fn in (normalized_cross_correlation, gcc_phat):
        base = np.argmax(fn(a, b, 40))
        assert np.argmax(fn(a * gain, b, 40)) == base
        assert np.argmax(fn(a, b * gain, 40)) == base


def test_delays_bounded_by_max_lag():
    rng = np.random.default_rng(2)
    max_lag = max_lag_for_device(DEFAULT_DEVICE, 192000)
    for seed in range(5):
        a, b = synthesize_pure_shift(2048, int(rng.integers(-86, 87)), 10.0, seed=seed)
        rec = StereoRecording(192000, b / max(1e-9, np.max(np.abs(b))) * 0.5,
                              a / max(1e-9, np.max(np.abs(a))) * 0.5)
        seg = PhonemeSegment(start=0, end=2048, label="?")
        m = estimate_tdoa(rec, seg)
        assert abs(m.delay_samples) <= max_lag


def test_noisy_recovery_small_batch():
    hits = 0
    for s in range(50):
        rng = np.random.default_rng(s)
        d = int(rng.integers(-86, 87))
        a, b = synthesize_pure_shift(4096, d, snr_db=20, seed=900 + s)
        ph = gcc_phat(a, b, 93)
        hits += (np.argmax(ph) - 93) == d
    assert hits >= 49


def test_subsample_interpolation_close_to_true_fraction():
    a = _band_noise(8192, seed=8)
    # fractional shift through the spectral method
    spec = np.fft.rfft(a)
    k = np.arange(len(spec))
    b = np.fft.irfft(spec * np.exp(-2j * np.pi * k * 6.4 / len(a)), len(a))
    corr = normalized_cross_correlation(a, b, 40)
    m_idx = int(np.argmax(corr))
    assert m_idx - 40 == 6
    seg_rec = StereoRecording(192000, b * 0.4, a * 0.4)
    m = estimate_tdoa(seg_rec, PhonemeSegment(start=0, end=8192, label="?"), method=Method.CC)
    assert m.delay_samples == 6.0
    assert m.delay_subsample == pytest.approx(6.4, abs=0.2)


def test_measure_dynamic_preserves_order(tone_recording):
    rec = _recording_with_shift(-27)
    segs = [
        PhonemeSegment(start=1000, end=6000, label="AA"),
        PhonemeSegment(start=7000, end=12000, label="S"),
    ]
    dyn = measure_dynamic(rec, segs)
    assert dyn.labels == ("AA", "S")
    assert len(dyn) == 2
    assert dyn.sample_rate == rec.sample_rate


@settings(max_examples=20, deadline=None)
@given(lag=st.integers(min_value=-39, max_value=39), seed=st.integers(0, 1000))
def test_cc_shift_property(lag, seed):
    a = _band_noise(2048, seed=seed)
    b = _shifted(a, lag)
    corr = normalized_cross_correlation(a, b, 40)
    assert np.argmax(corr) - 40 == lag


def _assert_no_worker_left():
    # waitpid raises once this process has no child, running or exited
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fork_map_keeps_job_order():
    # each job sleeps, so every worker draws before one can empty the pipe
    def job(k):
        time.sleep(0.1)
        return k, os.getpid()

    results = fork_map(job, list(range(7)), workers=3)
    assert [job for job, _ in results] == list(range(7))
    pids = {pid for _, pid in results}
    assert len(pids) == 3 and os.getpid() not in pids
    _assert_no_worker_left()


def test_fork_map_hands_out_jobs_as_workers_finish():
    # while one worker is held up by job 0, the other clears the queue
    def job(k):
        if k == 0:
            time.sleep(0.5)
        return os.getpid()

    pids = fork_map(job, list(range(6)), workers=2)
    assert pids[0] not in pids[1:]
    _assert_no_worker_left()


@pytest.mark.parametrize("here", [False, True])
def test_fork_map_ticket_runs_under_contention(tmp_path, here):
    # 3,000 jobs are more than MAX_TICKETS, so a ticket names a run of 3
    # jobs; 5 processes draw them at once, and each job runs exactly once
    assert -(-3000 // tdoa.MAX_TICKETS) == 3
    started = tmp_path / "started"

    def job(k):
        with open(started, "a") as f:  # O_APPEND: one line per job
            f.write(f"{k}\n")
        return k

    assert fork_map(job, list(range(3000)), workers=5, here=here) == list(range(3000))
    assert sorted(map(int, started.read_text().split())) == list(range(3000))
    _assert_no_worker_left()


def test_fork_map_worker_exiting_without_a_result_is_child_process_error():
    def job(k):
        if k == 1:
            os._exit(3)
        return k

    with pytest.raises(ChildProcessError, match="exited without a result"):
        fork_map(job, [0, 1, 2, 3], workers=2)
    _assert_no_worker_left()


class ShareError(Exception):
    pass


def test_fork_map_here_computes_in_this_process():
    # this process draws tickets beside its forked workers; each job
    # sleeps, so every process draws one
    def job(k):
        time.sleep(0.2)
        return k, os.getpid()

    results = fork_map(job, [0, 1, 2], workers=3, here=True)
    assert [job for job, _ in results] == [0, 1, 2]
    pids = {pid for _, pid in results}
    assert len(pids) == 3 and os.getpid() in pids
    _assert_no_worker_left()


def test_fork_map_error_in_the_callers_job_keeps_its_class():
    caller = os.getpid()

    def job(k):
        if os.getpid() == caller:
            raise ShareError("here")
        time.sleep(0.2)  # the worker is still busy when the caller fails
        return k

    with pytest.raises(ShareError, match="here"):
        fork_map(job, [0, 1], workers=2, here=True)
    _assert_no_worker_left()


def test_fork_map_here_worker_exiting_is_child_process_error():
    caller = os.getpid()

    def job(k):
        if os.getpid() != caller:
            os._exit(3)
        time.sleep(0.2)  # the worker draws the other job meanwhile
        return k

    with pytest.raises(ChildProcessError, match="exited without a result"):
        fork_map(job, [0, 1], workers=2, here=True)
    _assert_no_worker_left()


@pytest.mark.parametrize("here", [False, True])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_fork_map_raises_the_lowest_indexed_failure(workers, here):
    # job 4 fails first in time, but job 1 is the failure a single
    # process meets first, so it is raised at any worker count
    def job(k):
        if k == 1:
            time.sleep(0.2)
            raise ShareError("1")
        if k == 4:
            raise ShareError("4")
        return k

    with pytest.raises(ShareError, match="^1$"):
        fork_map(job, list(range(6)), workers=workers, here=here)
    _assert_no_worker_left()


def test_fork_map_starts_no_job_after_a_failure(tmp_path):
    # a failing job drains the ticket pipe, so the other worker finishes
    # the job it holds and draws no further one
    started = tmp_path / "started"

    def job(k):
        with open(started, "a") as f:  # O_APPEND: one line per job
            f.write(f"{k}\n")
        time.sleep(0.005)
        if k == 2:
            raise ShareError("2")
        return k

    with pytest.raises(ShareError, match="^2$"):
        fork_map(job, list(range(200)), workers=2)
    assert len(started.read_text().split()) < 20
    _assert_no_worker_left()


@pytest.mark.parametrize("here", [False, True])
@pytest.mark.parametrize("case", ["returns", "fails", "exits"])
def test_fork_map_leaves_no_descriptor_or_worker(case, here):
    caller = os.getpid()

    def job(k):
        time.sleep(0.01)
        if case == "fails" and k == 3:
            raise ShareError("3")
        if case == "exits" and os.getpid() != caller:
            os._exit(3)
        return k

    before = sorted(os.listdir("/proc/self/fd"))
    if case == "returns":
        assert fork_map(job, list(range(8)), workers=3, here=here) == list(range(8))
    else:
        with pytest.raises(ShareError if case == "fails" else ChildProcessError):
            fork_map(job, list(range(8)), workers=3, here=here)
    assert sorted(os.listdir("/proc/self/fd")) == before
    _assert_no_worker_left()
