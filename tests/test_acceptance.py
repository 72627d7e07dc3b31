"""End-to-end acceptance suite.

Each criterion prints one PASS/FAIL line (run with -s or -rA to see
them all) and asserts its stated tolerance. Everything runs on the
simulator at fixed seeds, so results are reproducible bit for bit.
"""

import io
import json
import contextlib
import functools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from phonotdoa.cli import main as cli_main
from phonotdoa.config import DEFAULT_THRESHOLD
from phonotdoa.evaluation import (
    ExperimentConfig,
    LabeledScoreSet,
    accuracy,
    eer,
    run_experiment,
)
from phonotdoa.geometry import REFERENCE_POSE, pose_to_tdoa, transform_tdoa
from phonotdoa.phonemes import AFFRICATE, INVENTORY, NASAL, STOP
from phonotdoa.profiles import (
    PhonemeTemplate, ProfileMode, enroll_from_dynamics, normalize_dynamic,
)
from phonotdoa.scoring import ScoringMethod, Verdict, decide, score_dynamic
from phonotdoa.simulator import (
    AttackKind,
    AttackScenario,
    synthesize_attack,
    synthesize_live,
)
from phonotdoa.tdoa import (
    DeviceSpec,
    Method,
    TdoaDynamic,
    TdoaMeasurement,
    gcc_phat,
    measure_dynamic,
    normalized_cross_correlation,
)

from devices import NOTE3, NOTE5, S5
from pure_shift import synthesize_pure_shift

FS = 192000
MAX_LAG = 94  # covers |delay| <= 86 with margin
DEVICE = DeviceSpec(0.15, "reference")
SHORT = DeviceSpec(0.10, "short")  # spacing below the reference top mic's 0.14 m


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


# --- criterion 1: delay-recovery oracle ---

def test_c1_delay_recovery_rates():
    from phonotdoa.audio_io import StereoRecording
    from phonotdoa.segmentation import PhonemeSegment
    from phonotdoa.tdoa import estimate_tdoa

    n_trials = 1000
    t0 = time.monotonic()
    rng = np.random.default_rng(20210)
    seg = PhonemeSegment(start=0, end=4096, label="?")
    hits_phat = hits_cc = 0
    for i in range(n_trials):
        d = int(rng.integers(-86, 87))
        a, b = synthesize_pure_shift(4096, d, snr_db=20.0, seed=50_000 + i)
        # bottom leads by construction: a is the bottom channel
        rec = StereoRecording(FS, top=b / 20.0, bottom=a / 20.0)
        hits_phat += estimate_tdoa(rec, seg, Method.GCC_PHAT, DEVICE).delay_samples == d
        hits_cc += estimate_tdoa(rec, seg, Method.CC, DEVICE).delay_samples == d
    elapsed = time.monotonic() - t0
    rate_phat = hits_phat / n_trials
    rate_cc = hits_cc / n_trials
    ok = rate_phat >= 0.99 and rate_cc >= 0.95 and elapsed < 30.0
    report(
        1,
        ok,
        f"exact recovery over {n_trials} trials: gcc-phat {rate_phat:.3f} "
        f"(need >=0.99), cc {rate_cc:.3f} (need >=0.95), {elapsed:.1f}s (<30s)",
    )
    assert rate_phat >= 0.99
    assert rate_cc >= 0.95
    assert elapsed < 30.0


# --- criterion 2: PHAT multipath robustness ---

def test_c2_phat_multipath():
    n_trials = 500
    rng = np.random.default_rng(31337)
    stay_phat = stay_cc = 0
    for i in range(n_trials):
        d = int(rng.integers(-86, 87))
        a, b = synthesize_pure_shift(
            4096, d, snr_db=20.0, seed=90_000 + i, echo=(50, 0.5)
        )
        # "stays at the direct path" = within +/-2 of the direct delay,
        # i.e. nowhere near the echo 50 samples away
        err_phat = abs((int(np.argmax(gcc_phat(a, b, MAX_LAG))) - MAX_LAG) - d)
        err_cc = abs(
            (int(np.argmax(normalized_cross_correlation(a, b, MAX_LAG))) - MAX_LAG) - d
        )
        stay_phat += err_phat <= 2
        stay_cc += err_cc <= 2
    rate = stay_phat / n_trials
    report(
        2,
        rate >= 0.95,
        f"gcc-phat stayed on the direct path in {rate:.3f} of {n_trials} "
        f"echo trials (need >=0.95); cc managed {stay_cc / n_trials:.3f}",
    )
    assert rate >= 0.95


# --- criterion 3: simulator calibration ---

@pytest.fixture(scope="module")
def calibration_stats(source_model):
    labels = sorted(source_model.labels)
    values = {label: [] for label in labels}
    for repeat in range(20):
        utt = synthesize_live(
            labels, source_model, REFERENCE_POSE, FS,
            seed=70_000 + repeat, duration_range=(0.08, 0.10),
        )
        dyn = measure_dynamic(utt.recording, utt.segments, device=DEVICE)
        for label, m in zip(labels, dyn.measurements):
            values[label].append(m.delay_samples)
    means = {l: float(np.mean(v)) for l, v in values.items()}
    stds = {l: float(np.std(v, ddof=1)) for l, v in values.items()}
    return means, stds


def test_c3_reference_bands(calibration_stats, source_model):
    means, stds = calibration_stats
    vowels = [l for l in source_model.labels if INVENTORY.is_vowel(l)]
    nasals = [l for l in source_model.labels if INVENTORY.articulation_class(l) == NASAL]
    other_consonants = [
        l for l in source_model.labels
        if not INVENTORY.is_vowel(l) and l not in nasals
    ]
    vowel_lo = min(means[l] for l in vowels)
    vowel_hi = max(means[l] for l in vowels)
    cons_lo = min(means[l] for l in other_consonants)
    cons_hi = max(means[l] for l in other_consonants)
    nasal_vals = [means[l] for l in nasals]
    ok = (
        46.0 <= vowel_lo and vowel_hi <= 65.0
        and 34.8 <= cons_lo and cons_hi <= 66.8
        and all(-36.0 <= v <= -24.0 for v in nasal_vals)
    )
    report(
        3,
        ok,
        f"measured means over 20 repeats: vowels [{vowel_lo:.1f}, {vowel_hi:.1f}] "
        f"in [46, 65]; consonants [{cons_lo:.1f}, {cons_hi:.1f}] in [34.8, 66.8]; "
        f"nasals {['%.1f' % v for v in nasal_vals]} near -30",
    )
    assert 46.0 <= vowel_lo and vowel_hi <= 65.0
    assert 34.8 <= cons_lo and cons_hi <= 66.8
    for v in nasal_vals:
        assert -36.0 <= v <= -24.0


def test_c3_stability_ordering(calibration_stats, source_model):
    means, stds = calibration_stats
    vowel_stds = [stds[l] for l in source_model.labels if INVENTORY.is_vowel(l)]
    stop_labels = [
        l for l in source_model.labels
        if INVENTORY.articulation_class(l) in (STOP, AFFRICATE)
        and not INVENTORY.is_voiced(l)
    ]
    stop_stds = [stds[l] for l in stop_labels]
    ok = (
        max(vowel_stds) <= 3.0
        and max(stop_stds) <= 25.0
        and min(stop_stds) > max(vowel_stds)
    )
    report(
        3,
        ok,
        f"stability: vowel stds <= {max(vowel_stds):.2f} (need <=3), voiceless "
        f"stops in [{min(stop_stds):.1f}, {max(stop_stds):.1f}] (need <=25, "
        f"above every vowel)",
    )
    assert max(vowel_stds) <= 3.0
    assert max(stop_stds) <= 25.0
    assert min(stop_stds) > max(vowel_stds)


# --- criterion 4: live vs playback separation ---

def test_c4_playback_eer():
    t0 = time.monotonic()
    config = ExperimentConfig.from_dict(
        {
            "seed": 404,
            "users": 12,
            "passphrases_per_user": 10,
            "live_trials": 10,
            "static_attacks": 5,
            "mobile_attacks": 5,
            "duration_range": [0.08, 0.12],
            "methods": ["correlation", "probability", "combined"],
        }
    )
    rep = run_experiment(config)
    elapsed = time.monotonic() - t0
    overall = rep["methods"]["combined"]["overall"]
    ok = overall["eer"] <= 0.02 and elapsed < 300.0
    report(
        4,
        ok,
        f"12 users x 10 passphrases x 10 live vs {overall['n_attack']} playback "
        f"attacks: combined EER {overall['eer']:.4f} (need <=0.02), "
        f"{elapsed:.0f}s (<300s)",
    )
    assert overall["n_live"] == 1200
    assert overall["n_attack"] == 1200
    assert overall["eer"] <= 0.02
    assert elapsed < 300.0


# --- criterion 5: replace attacks ---

@pytest.mark.xfail(
    strict=True,
    reason=(
        "geometrically unattainable together with the nasal calibration "
        "anchor: sources that measure near -30 samples at the reference "
        "pose must sit ~9 cm above the oral cluster, and no placement "
        "inside the 0.10 m source region brings the full-inventory range "
        "at 0.30 m under ~26 samples. The oral-only range does collapse "
        "below 6 samples (see test_simulator.py); the conflict is "
        "documented rather than silently recalibrated."
    ),
)
def test_c5_replace_range_collapse(source_model):
    labels = sorted(source_model.labels)
    scenario = AttackScenario(kind=AttackKind.REPLACE, recorder_distance_m=0.30)
    utt = synthesize_attack(labels, source_model, REFERENCE_POSE, scenario, FS, seed=505)
    dyn = measure_dynamic(utt.recording, utt.segments, device=DEVICE)
    spread = float(dyn.delays.max() - dyn.delays.min())
    report(
        5,
        spread < 6.0,
        f"replace at 0.30 m: full-inventory delay range {spread:.1f} samples "
        f"(target <6; nasals keep it high by construction)",
    )
    assert spread < 6.0


def test_c5_replace_detection():
    config = ExperimentConfig.from_dict(
        {
            "seed": 515,
            "users": 6,
            "passphrases_per_user": 4,
            "live_trials": 6,
            "static_attacks": 0,
            "mobile_attacks": 0,
            "replace_distances": [0.30, 1.60],
            "replace_attacks": 3,
            "duration_range": [0.08, 0.12],
            "methods": ["combined"],
        }
    )
    rep = run_experiment(config)
    block = rep["methods"]["combined"]
    acc_030 = block["by_attack"]["replace_0.3"]["accuracy"]
    acc_160 = block["by_attack"]["replace_1.6"]["accuracy"]
    ok = acc_030 >= 0.99 and acc_160 == 1.0
    report(
        5,
        ok,
        f"replace detection accuracy: {acc_030:.4f} at 0.30 m (need >=0.99), "
        f"{acc_160:.4f} beyond 1.5 m (need 1.0)",
    )
    assert acc_030 >= 0.99
    assert acc_160 == 1.0


# --- criterion 6: geometry round trip and pose release ---

def test_c6_transform_matches_simulator(source_model):
    # 14 oral phonemes, moved on the mouth axis, and the nasals, moved on
    # the vertical line through the mouth
    labels = [
        l for l in sorted(source_model.labels)
        if INVENTORY.articulation_class(l) != NASAL
    ][:14] + ["M", "N", "NG"]
    cases = [(a, dx, DEVICE) for a in (30.0, 45.0, 60.0) for dx in (0.05, 0.10, 0.15)]
    # a device change is a pose change: the reference x and alpha on three
    # measured handsets and a 0.10 m one, each with its bottom mic in place
    cases += [(0.0, 0.0, device) for device in (NOTE3, NOTE5, S5, SHORT)]
    worst = {}
    for alpha_deg, dx, device in cases:
        pose = REFERENCE_POSE.with_spacing(device.mic_spacing_m).with_(
            x=REFERENCE_POSE.x + dx, alpha=math.radians(alpha_deg)
        )
        utt = synthesize_live(
            labels, source_model, pose, FS, seed=606, jitter_scale=0.0,
            duration_range=(0.06, 0.08),
        )
        dyn = measure_dynamic(utt.recording, utt.segments, device=device)
        key = "pose" if device is DEVICE else "handset"
        for label, m in zip(labels, dyn.measurements):
            predicted = transform_tdoa(
                source_model.reference_delay(label),
                REFERENCE_POSE,
                alpha=math.radians(alpha_deg),
                delta_x=dx,
                sample_rate=FS,
                spacing=device.mic_spacing_m,
            )
            worst[key] = max(worst.get(key, 0.0), abs(predicted - m.delay_samples))
    report(
        6,
        max(worst.values()) <= 2.0,
        f"pose transform vs simulator: worst |error| {worst['pose']:.2f} samples over "
        f"3 angles x 3 distances, {worst['handset']:.2f} over 4 handsets (need <=2)",
    )
    assert max(worst.values()) <= 2.0


@pytest.mark.parametrize("device", [S5, SHORT], ids=["s5", "short"])
def test_c6_verify_across_handsets(source_model, device):
    # enroll on the reference handset, then score live and static-playback
    # renders made on another handset, as `verify --device-spacing-m` does:
    # the templates move to the verification handset through the forward
    # model (rescaling the delays by the spacing ratio instead reads 0.50
    # on the 0.10 m handset)
    rng = np.random.default_rng(626)
    pose = REFERENCE_POSE.with_spacing(device.mic_spacing_m)
    labels_pool = sorted(source_model.labels)
    correct = total = 0
    for user in range(2):
        model = source_model.perturbed(rng)
        for _ in range(2):
            labels = rng.choice(labels_pool, size=12).tolist()
            trials = [
                synthesize_live(labels, model, REFERENCE_POSE, FS, int(rng.integers(2**31)),
                                duration_range=(0.06, 0.08))
                for _ in range(3)
            ]
            profile = enroll_from_dynamics(
                f"user{user}", ProfileMode.TEXT_DEPENDENT,
                [measure_dynamic(t.recording, t.segments, device=DEVICE) for t in trials],
                REFERENCE_POSE, "pp",
            )
            for live in (True,) * 3 + (False,) * 3:
                seed = int(rng.integers(2**31))
                if live:
                    utt = synthesize_live(labels, model, pose, FS, seed,
                                          duration_range=(0.06, 0.08))
                else:
                    scenario = AttackScenario(
                        kind=AttackKind.STATIC_PLAYBACK,
                        source_offset=(rng.uniform(-0.03, 0.01), rng.uniform(-0.04, 0.03)),
                    )
                    utt = synthesize_attack(labels, model, pose, scenario, FS, seed,
                                            duration_range=(0.06, 0.08))
                dynamic = measure_dynamic(utt.recording, utt.segments, device=device)
                sim = profile.score(dynamic)
                verdict = decide(sim, DEFAULT_THRESHOLD, ScoringMethod.COMBINED).verdict
                correct += (verdict == Verdict.LIVE) == live
                total += 1
    acc = correct / total
    report(6, acc >= 0.85, f"verify on a {device.mic_spacing_m} m handset: accuracy "
           f"{acc:.3f} over {total} utterances (need >=0.85)")
    assert acc >= 0.85


# both pose-release tests read the transform-on arm: run each arm once
@functools.lru_cache(maxsize=None)
def _pose_experiment(transform):
    config = ExperimentConfig.from_dict(
        {
            "seed": 616,
            "users": 3,
            "passphrases_per_user": 2,
            "live_trials": 3,
            "static_attacks": 3,
            "mobile_attacks": 0,
            "length_bands": [[3, 5]],
            "band_weights": [1.0],
            "duration_range": [0.08, 0.12],
            "methods": ["combined"],
            "pose_changes": [
                [30.0, 0.05], [45.0, 0.05], [60.0, 0.05],
                [30.0, 0.10], [45.0, 0.10], [60.0, 0.10],
                [30.0, 0.15], [45.0, 0.15], [60.0, 0.15],
            ],
            "transform": transform,
            # fixed system operating point: per-pose accuracy collapses
            # for untransformed templates instead of being rescued by a
            # per-pose threshold
            "threshold": 0.6,
        }
    )
    rep = run_experiment(config)
    poses = rep["methods"]["combined"]["by_pose"]
    changed = [v["accuracy"] for k, v in poses.items() if k != "a0_dx0"]
    return min(changed), max(changed)


def test_c6_pose_release_accuracy():
    # passphrases drawn from the whole inventory, one perturbed vocal
    # model per user: the transform moves the nasals through their
    # source height above the mouth
    on_lo, _ = _pose_experiment(transform=True)
    _, off_hi = _pose_experiment(transform=False)
    ok = on_lo >= 0.85 and off_hi < 0.60
    report(
        6,
        ok,
        f"pose-changed verification accuracy: transform on >= {on_lo:.2f} "
        f"(need >=0.85), transform off <= {off_hi:.2f} (need <0.60)",
    )
    assert on_lo >= 0.85
    assert off_hi < 0.60


def test_c6_pose_release_accuracy_with_nasals():
    # passphrases drawn from the whole inventory: the transform moves the
    # nasals through their source height above the mouth
    on_lo, _ = _pose_experiment(transform=True)
    report(
        6,
        on_lo >= 0.85,
        f"pose-changed verification accuracy with nasals: transform on >= "
        f"{on_lo:.2f} (need >=0.85)",
    )
    assert on_lo >= 0.85


# --- criterion 7: text-independent mode ---

def test_c7_text_independent_eer():
    config = ExperimentConfig.from_dict(
        {
            "seed": 707,
            "mode": "text_independent",
            "users": 10,
            "passphrases_per_user": 6,
            "live_trials": 5,
            "static_attacks": 3,
            "mobile_attacks": 2,
            "duration_range": [0.08, 0.12],
            "methods": ["combined"],
        }
    )
    rep = run_experiment(config)
    overall = rep["methods"]["combined"]["overall"]
    ok = overall["eer"] <= 0.04
    report(
        7,
        ok,
        f"text-independent: enroll 44-phoneme inventories, verify unseen "
        f"sequences: combined EER {overall['eer']:.4f} (need <=0.04) over "
        f"{overall['n_live']} live / {overall['n_attack']} attacks",
    )
    assert overall["eer"] <= 0.04


# --- criterion 8: metric oracles ---

def _grid_eer(live, attack, n=100_000):
    lo = min(live.min(), attack.min()) - 1e-9
    hi = max(live.max(), attack.max()) + 1e-9
    grid = np.linspace(lo, hi, n)
    # counts of scores above / at-or-below each grid point
    far = (attack.size - np.searchsorted(np.sort(attack), grid, side="right")) / attack.size
    frr = np.searchsorted(np.sort(live), grid, side="right") / live.size
    i = int(np.argmin(np.abs(far - frr)))
    return float((far[i] + frr[i]) / 2.0)


def test_c8_eer_grid_oracle():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(100):
        mu_l = rng.uniform(0.5, 0.9)
        mu_a = rng.uniform(0.1, 0.6)
        live = rng.normal(mu_l, rng.uniform(0.05, 0.3), 2000)
        attack = rng.normal(mu_a, rng.uniform(0.05, 0.3), 2000)
        got = eer(LabeledScoreSet(live, attack))
        want = _grid_eer(live, attack)
        worst = max(worst, abs(got - want))
    report(
        8,
        worst <= 1e-3,
        f"eer vs 1e5-point grid sweep over 100 random sets: worst "
        f"|difference| {worst:.2e} (need <=1e-3)",
    )
    assert worst <= 1e-3


def test_c8_accuracy_manual_counts():
    s = LabeledScoreSet([0.9, 0.6, 0.5], [0.7, 0.3, 0.55])
    cases = [
        (0.55, 4 / 6),  # live 0.9, 0.6 accepted; attacks 0.3, 0.55 rejected
        (0.75, 4 / 6),  # only live 0.9 accepted; all three attacks rejected
        (0.2, 3 / 6),   # every score is accepted: 3 live right, 3 attacks wrong
        (2.0, 3 / 6),   # threshold above all scores: |attack| / total
    ]
    ok = all(accuracy(s, thr) == pytest.approx(want) for thr, want in cases)
    report(8, ok, "accuracy matches manual counts on enumerable sets exactly")
    for thr, want in cases:
        assert accuracy(s, thr) == pytest.approx(want)


# --- criterion 9: identity / invariance suite ---

def test_c9_identities(source_model):
    checks = []

    # zero-delay symmetry
    from phonotdoa.geometry import DevicePose

    sym = DevicePose(x=0.05, l1=0.075, l2=0.075, l=0.15)
    checks.append(abs(pose_to_tdoa(sym, (0.0, 0.0), FS)) < 1e-12)

    # alpha = 0 identity and delta_x = 0 exact identity
    base = pose_to_tdoa(REFERENCE_POSE, (0.0, 0.0), FS)
    checks.append(
        abs(transform_tdoa(base, REFERENCE_POSE, alpha=0.0, sample_rate=FS) - base)
        < 0.01
    )
    checks.append(transform_tdoa(base, REFERENCE_POSE, delta_x=0.0, sample_rate=FS) == base)

    # the correlation reads only the template means, not their stds
    labels = ["AA", "S", "K", "OW", "M"]
    means = [52.0, 54.5, 47.5, 52.9, -29.0]
    delays = [53.0, 53.8, 49.0, 53.5, -28.0]
    dyn = TdoaDynamic(
        measurements=tuple(
            TdoaMeasurement(label=l, delay_samples=d, peak_value=1.0, method=Method.GCC_PHAT)
            for l, d in zip(labels, delays)
        ),
        sample_rate=FS,
        device=DEVICE,
    )
    templates = [
        PhonemeTemplate(label=l, mean_delay=m, std_delay=1.0)
        for l, m in zip(labels, means)
    ]
    plain = score_dynamic(dyn, templates).correlation
    wider = score_dynamic(dyn, [replace(t, std_delay=2.1) for t in templates]).correlation
    checks.append(abs(plain - wider) <= 1e-12)

    # sample-rate round trip, 44.1 kHz to 96 kHz and back, to 1e-9
    back = normalize_dynamic(normalize_dynamic(replace(dyn, sample_rate=44100), 96000), 44100)
    checks.append(bool(np.all(np.abs(back.delays - dyn.delays) < 1e-9)))

    # kernel value exp(-1/2) at a one-sigma offset
    one_sigma = score_dynamic(
        TdoaDynamic(
            measurements=(
                TdoaMeasurement(label="AA", delay_samples=53.0, peak_value=1.0, method=Method.GCC_PHAT),
                TdoaMeasurement(label="S", delay_samples=54.5, peak_value=1.0, method=Method.GCC_PHAT),
                TdoaMeasurement(label="K", delay_samples=47.5, peak_value=1.0, method=Method.GCC_PHAT),
            ),
            sample_rate=FS,
            device=DEVICE,
        ),
        [
            PhonemeTemplate(label="AA", mean_delay=52.0, std_delay=1.0),
            PhonemeTemplate(label="S", mean_delay=54.5, std_delay=1.0),
            PhonemeTemplate(label="K", mean_delay=47.5, std_delay=1.0),
        ],
    ).probability
    checks.append(abs(one_sigma - (math.exp(-0.5) + 2.0) / 3.0) < 1e-12)

    ok = all(checks)
    report(9, ok, f"identity/invariance suite: {sum(checks)}/{len(checks)} checks hold")
    assert all(checks)


# --- criterion 10: CLI determinism ---

def _run_cli(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main([str(a) for a in args])
    return code, out.getvalue()


def test_c10_cli_determinism(tmp_path):
    labels = ["IY", "S", "K", "AA", "T", "OW", "N", "EH"]
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({"kind": "live", "labels": labels, "seed": 10}))

    outputs = {}
    for tag in ("one", "two"):
        stdout = {}
        sim_dir = tmp_path / "sim"
        _, stdout["simulate"] = _run_cli("simulate", scene, sim_dir, "--seed", 10)
        wav = (sim_dir / "recording.wav").read_bytes()

        trials = []
        for seed in (1, 2, 3):
            s = tmp_path / f"s{seed}.json"
            s.write_text(json.dumps({"kind": "live", "labels": labels, "seed": seed}))
            d = tmp_path / f"t{seed}"
            _run_cli("simulate", s, d)
            trials.append(f"{d}/recording.wav:{d}/alignment.json")
        profile = tmp_path / "profile.json"
        args = ["enroll", "--out", profile, "--user", "u1"]
        for t in trials:
            args += ["--trial", t]
        _, stdout["enroll"] = _run_cli(*args)

        _, stdout["verify"] = _run_cli(
            "verify", sim_dir / "recording.wav", sim_dir / "alignment.json",
            "--profile", profile,
        )
        _, stdout["tdoa"] = _run_cli(
            "tdoa", sim_dir / "recording.wav", sim_dir / "alignment.json"
        )
        _, stdout["pose"] = _run_cli(
            "pose", "--tdoa", "62.996", "--delta-x-m", "0.10"
        )
        exp = tmp_path / "exp.json"
        exp.write_text(
            json.dumps(
                {
                    "seed": 3,
                    "users": 1,
                    "passphrases_per_user": 1,
                    "live_trials": 3,
                    "static_attacks": 2,
                    "mobile_attacks": 1,
                    "length_bands": [[2, 2]],
                    "band_weights": [1.0],
                    "duration_range": [0.06, 0.08],
                }
            )
        )
        _, stdout["evaluate"] = _run_cli("evaluate", exp, tmp_path / "rep")
        outputs[tag] = (stdout, wav)

    first, second = outputs["one"], outputs["two"]
    same = first[0] == second[0] and first[1] == second[1]
    report(
        10,
        same,
        "all six CLI commands produced byte-identical stdout (and WAV bytes) "
        "across two seeded runs",
    )
    assert first[0] == second[0]
    assert first[1] == second[1]
