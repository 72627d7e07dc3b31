import json

import numpy as np
import pytest

from phonotdoa.errors import ConfigError, SchemaError
from phonotdoa.geometry import DevicePose, REFERENCE_POSE, pose_to_tdoa
from phonotdoa.phonemes import INVENTORY, NASAL, AFFRICATE, STOP, VOWEL
from phonotdoa.simulator import (
    MAX_PATH_M,
    SCENE_KEYS,
    AttackKind,
    AttackScenario,
    circle_trajectory,
    load_scene,
    synthesize_attack,
    synthesize_beep_scene,
    synthesize_live,
)
from phonotdoa.sourcemodel import PhonemeSource, VocalSourceModel
from phonotdoa.tdoa import measure_dynamic

from pure_shift import synthesize_pure_shift

LABELS = ["IY", "S", "K", "AA", "T", "OW", "N", "EH"]


def test_symmetric_pose_zero_ground_truth(source_model):
    pose = DevicePose(x=0.05, l1=0.075, l2=0.075, l=0.15)
    sources = {
        label: PhonemeSource(label=label, dy=0.0, dz=0.0, jitter_std=1.0)
        for label in ("AA", "S", "M")
    }
    model = VocalSourceModel(sources)
    utt = synthesize_live(["AA", "S", "M"], model, pose, seed=0, jitter_scale=0.0)
    assert np.allclose([g.delay_samples for g in utt.ground_truth], 0.0, atol=1e-12)


def test_ground_truth_consistent_with_forward_model(source_model):
    utt = synthesize_live(LABELS, source_model, REFERENCE_POSE, seed=3)
    for g in utt.ground_truth:
        want = pose_to_tdoa(REFERENCE_POSE, (g.source_dy, g.source_dz), 192000)
        assert g.delay_samples == pytest.approx(want, abs=1e-9)


def test_same_seed_bit_identical(source_model):
    u1 = synthesize_live(LABELS, source_model, REFERENCE_POSE, seed=42)
    u2 = synthesize_live(LABELS, source_model, REFERENCE_POSE, seed=42)
    assert np.array_equal(u1.recording.top, u2.recording.top)
    assert np.array_equal(u1.recording.bottom, u2.recording.bottom)
    assert u1.segments == u2.segments
    u3 = synthesize_live(LABELS, source_model, REFERENCE_POSE, seed=43)
    assert not np.array_equal(u1.recording.top, u3.recording.top)


def test_vowel_only_utterance_in_reference_band(source_model):
    vowels = [l for l in source_model.labels if INVENTORY.articulation_class(l) == VOWEL]
    utt = synthesize_live(vowels, source_model, REFERENCE_POSE, seed=7)
    dyn = measure_dynamic(utt.recording, utt.segments)
    assert np.all(dyn.delays >= 46.0)
    assert np.all(dyn.delays <= 65.0)


def test_unknown_label_rejected(source_model):
    with pytest.raises(SchemaError, match="no source model for 'XX'"):
        synthesize_live(["AA", "XX"], source_model, REFERENCE_POSE, seed=0)


def test_alignment_matches_ground_truth_ranges(source_model):
    utt = synthesize_live(LABELS, source_model, REFERENCE_POSE, seed=5)
    assert len(utt.segments) == len(LABELS)
    for seg, g in zip(utt.segments, utt.ground_truth):
        assert seg.label == g.label
        assert (seg.start, seg.end) == (g.start, g.end)


def test_recovery_tolerances_by_class(source_model):
    worst_plain, worst_stop = 0.0, 0.0
    for seed in range(3):
        utt = synthesize_live(
            list(source_model.labels), source_model, REFERENCE_POSE,
            seed=seed, noise_snr_db=20.0,
        )
        dyn = measure_dynamic(utt.recording, utt.segments)
        for g, m in zip(utt.ground_truth, dyn.measurements):
            err = abs(m.delay_samples - g.delay_samples)
            cls = INVENTORY.articulation_class(g.label)
            if cls in (STOP, AFFRICATE) and not INVENTORY.is_voiced(g.label):
                worst_stop = max(worst_stop, err)
            else:
                worst_plain = max(worst_plain, err)
    assert worst_plain <= 2.0
    assert worst_stop <= 6.0


def test_echo_option_keeps_delay(source_model):
    utt = synthesize_live(
        ["AA", "S", "OW"], source_model, REFERENCE_POSE, seed=9,
        echo=(50, 0.5), jitter_scale=0.0,
    )
    dyn = measure_dynamic(utt.recording, utt.segments)
    for g, m in zip(utt.ground_truth, dyn.measurements):
        assert abs(m.delay_samples - g.delay_samples) <= 2.0


@pytest.mark.parametrize("kwargs, match", [
    ({"echo": (0, 0.5)}, "echo lag"),
    ({"echo": (-5, 0.5)}, "echo lag"),
    ({"echo": (0.5, 0.5)}, "echo lag"),
    # a louder echo is unphysical, and 1e308 overflows the render
    ({"echo": (50, -1.5)}, "echo amplitude"),
    ({"echo": (50, 1e308)}, "echo amplitude"),
    ({"jitter_scale": -0.5}, "jitter_scale"),
    ({"jitter_scale": float("nan")}, "jitter_scale"),
], ids=["echo_lag_zero", "echo_lag_negative", "echo_lag_fraction", "echo_amp_loud",
        "echo_amp_huge", "jitter_negative", "jitter_nan"])
def test_live_bad_echo_or_jitter_is_config_error(source_model, kwargs, match):
    # refused by the library, not silently rendered without echo or jitter
    with pytest.raises(ConfigError, match=match):
        synthesize_live(["AA", "S", "OW"], source_model, REFERENCE_POSE, seed=9, **kwargs)


def test_static_playback_flat_dynamic(source_model):
    scenario = AttackScenario(kind=AttackKind.STATIC_PLAYBACK, source_offset=(0.0, 0.0))
    utt = synthesize_attack(LABELS, source_model, REFERENCE_POSE, scenario, seed=21)
    dyn = measure_dynamic(utt.recording, utt.segments)
    assert dyn.delays.max() - dyn.delays.min() <= 2.0
    assert len(set(g.delay_samples for g in utt.ground_truth)) == 1


def test_mobile_playback_varies_and_decorrelates(source_model):
    wins = 0
    runs = 40
    rng = np.random.default_rng(99)
    for i in range(runs):
        scenario = AttackScenario(
            kind=AttackKind.MOBILE_PLAYBACK,
            trajectory=circle_trajectory(
                radius=float(rng.uniform(0.03, 0.07)),
                turns=float(rng.uniform(1.0, 2.5)),
                phase=float(rng.uniform(0, 2 * np.pi)),
            ),
        )
        labels = list(rng.choice(list(source_model.labels), size=10))
        utt = synthesize_attack(
            labels, source_model, REFERENCE_POSE, scenario,
            seed=int(rng.integers(0, 1 << 30)),
        )
        dyn = measure_dynamic(utt.recording, utt.segments)
        profile = np.array([source_model.reference_delay(l) for l in labels])
        rho = np.corrcoef(dyn.delays, profile)[0, 1]
        if rho < 0.5:
            wins += 1
    assert wins >= int(0.9 * runs)


def test_replace_compresses_oral_range(source_model):
    oral = [l for l in source_model.labels if INVENTORY.articulation_class(l) != NASAL]
    scenario = AttackScenario(kind=AttackKind.REPLACE, recorder_distance_m=0.30)
    utt = synthesize_attack(oral, source_model, REFERENCE_POSE, scenario, seed=13)
    dyn = measure_dynamic(utt.recording, utt.segments)
    assert dyn.delays.max() - dyn.delays.min() < 6.0


def test_replace_below_minimum_distance_rejected():
    with pytest.raises(ConfigError, match="replace recorder distance 0.1 m below"):
        AttackScenario(kind=AttackKind.REPLACE, recorder_distance_m=0.10)


@pytest.mark.parametrize("scenario", [
    AttackScenario(kind=AttackKind.REPLACE, recorder_distance_m=1e6),
    AttackScenario(kind=AttackKind.STATIC_PLAYBACK, source_offset=(0.0, 11.0)),
    AttackScenario(kind=AttackKind.MOBILE_PLAYBACK, trajectory=((1e308, 0.0), (-1e308, 0.0))),
], ids=["replace_far", "loudspeaker_far", "trajectory_overflows"])
def test_render_refuses_a_path_beyond_max(source_model, scenario):
    # every metre of path lengthens each phoneme's FFT pad: a recorder
    # 1e6 m away would ask for gigabytes before any check
    with pytest.raises(ConfigError, match=f"source over {MAX_PATH_M} m from a mic"):
        synthesize_attack(["AA", "S", "K"], source_model, REFERENCE_POSE, scenario, seed=3)


def test_mobile_needs_trajectory():
    with pytest.raises(ConfigError, match="mobile playback needs >= 2 waypoints"):
        AttackScenario(kind=AttackKind.MOBILE_PLAYBACK, trajectory=())


def test_beep_scene_echo_arithmetic():
    # face at 0.10 m: round trip 2*0.10/340 = 588 us = 112.9 samples
    assert 2 * 0.10 / 340.0 * 192000 == pytest.approx(112.94, abs=0.01)
    # face at 0.03 m: 33.9 samples, above the 0.1 ms separation floor
    assert 2 * 0.03 / 340.0 * 192000 == pytest.approx(33.88, abs=0.01)
    assert 2 * 0.03 / 340.0 >= 1e-4
    rec = synthesize_beep_scene(0.10, seed=0)
    assert rec.sample_rate == 192000
    assert rec.n_samples > 9600


def test_beep_scene_bounds():
    with pytest.raises(ConfigError, match=r"face distance 0.01 m outside \[0.03, 1.0\]"):
        synthesize_beep_scene(0.01)
    with pytest.raises(ConfigError, match=r"face distance 1.5 m outside \[0.03, 1.0\]"):
        synthesize_beep_scene(1.5)


def test_pure_shift_types():
    a, b = synthesize_pure_shift(2048, -17, snr_db=25, seed=0)
    assert len(a) == len(b) == 2048
    a2, b2 = synthesize_pure_shift(2048, -17, snr_db=25, seed=0)
    assert np.array_equal(a, a2) and np.array_equal(b, b2)


@pytest.mark.parametrize("kind, key", [
    ("live", "noise_snr"), ("beep", "labels"), ("replace", "trajectory"),
])
def test_load_scene_names_a_field_its_kind_does_not_read(tmp_path, kind, key):
    doc = {"kind": kind, "labels": ["AA"], "face_distance_m": 0.1, "recorder_distance_m": 0.3}
    doc = {k: v for k, v in doc.items() if k in SCENE_KEYS[kind]}
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({**doc, key: 5}))
    with pytest.raises(ConfigError, match=f"a {kind} scene has no field '{key}'"):
        load_scene(path)
    path.write_text(json.dumps(doc))
    assert load_scene(path).kind == kind


def test_load_scene_names_an_unknown_kind(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"kind": "sing", "labels": ["AA"]}))
    with pytest.raises(ConfigError, match="unknown scene kind 'sing'"):
        load_scene(path)
