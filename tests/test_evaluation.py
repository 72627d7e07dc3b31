import json
import math
import os
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonotdoa import evaluation
from phonotdoa.errors import ConfigError, DegenerateSignalError
from phonotdoa.evaluation import (
    ExperimentConfig,
    LabeledScoreSet,
    accuracy,
    eer,
    eer_with_threshold,
    roc,
    run_experiment,
    write_report,
)
from phonotdoa.profiles import ProfileMode
from phonotdoa.scoring import ScoringMethod
from phonotdoa.simulator import AttackKind


def test_empty_set_rejected():
    with pytest.raises(ConfigError, match="both live and attack scores are required"):
        LabeledScoreSet(live_scores=[], attack_scores=[0.1])



@pytest.mark.parametrize("live, attack", [([0.5, math.nan], [0.1]), ([0.5], [math.nan])])
def test_nan_score_rejected(live, attack):
    # roc counts scores above a threshold by position in the sorted
    # scores, where a NaN has no place
    with pytest.raises(ConfigError, match="scores must not be NaN"):
        LabeledScoreSet(live, attack)


def test_roc_perfect_separation():
    s = LabeledScoreSet([0.9, 0.8, 0.7], [0.2, 0.1, 0.3])
    points = roc(s)
    assert any(tar == 1.0 and far == 0.0 for _, tar, far in points)
    # monotone along the sweep
    tars = [p[1] for p in points]
    fars = [p[2] for p in points]
    assert all(a >= b for a, b in zip(tars, tars[1:]))
    assert all(a >= b for a, b in zip(fars, fars[1:]))


def test_roc_hand_enumerated():
    s = LabeledScoreSet([0.9, 0.8, 0.7], [0.2, 0.1, 0.3])
    got = {t: (tar, far) for t, tar, far in roc(s)}
    # thresholds between the two clusters: all live pass, no attacks
    assert got[0.3] == (1.0, 0.0)
    assert got[0.1] == (1.0, pytest.approx(2 / 3))
    assert got[-math.inf] == (1.0, 1.0)
    assert got[0.9] == (0.0, 0.0)


def _roc_reference(scores):
    # the plain form: one pass over each score list per threshold
    live = np.asarray(scores.live_scores)
    attack = np.asarray(scores.attack_scores)
    thresholds = [-math.inf] + sorted(set(np.concatenate([live, attack]).tolist()))
    points = []
    for t in thresholds:
        points.append((t, float(np.mean(live > t)), float(np.mean(attack > t))))
    points.append((math.inf, 0.0, 0.0))
    return points


@pytest.mark.parametrize("seed", range(20))
def test_roc_matches_per_threshold_reference(seed):
    rng = np.random.default_rng(seed)
    n_live, n_attack = rng.integers(1, 300, size=2)
    live = rng.normal(0.7, 0.2, n_live)
    attack = rng.normal(0.4, 0.2, n_attack)
    if seed % 2:  # ties within and across the two lists
        live = np.round(live, 1)
        attack = np.round(attack, 1)
    s = LabeledScoreSet(live, attack)
    assert roc(s) == _roc_reference(s)


def test_roc_chance_performance():
    rng = np.random.default_rng(0)
    vals = rng.uniform(0, 1, 400)
    s = LabeledScoreSet(vals[:200], vals[200:])
    points = roc(s)
    offsets = [abs(tar - far) for _, tar, far in points]
    assert max(offsets) < 0.15  # close to the diagonal


def test_eer_separated_zero():
    s = LabeledScoreSet([0.9, 0.8, 0.7], [0.2, 0.1, 0.3])
    assert eer(s) == pytest.approx(0.0, abs=1e-12)


def test_eer_identical_distributions_half():
    vals = [0.1, 0.2, 0.3, 0.4, 0.5]
    s = LabeledScoreSet(vals, vals)
    assert eer(s) == pytest.approx(0.5, abs=1e-9)


def _grid_eer(live, attack, n=100_000):
    lo = min(min(live), min(attack)) - 1e-6
    hi = max(max(live), max(attack)) + 1e-6
    grid = np.linspace(lo, hi, n)
    # counts of scores above / at-or-below each grid point
    far = (attack.size - np.searchsorted(np.sort(attack), grid, side="right")) / attack.size
    frr = np.searchsorted(np.sort(live), grid, side="right") / live.size
    i = np.argmin(np.abs(far - frr))
    return (far[i] + frr[i]) / 2.0


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_eer_matches_grid_oracle(seed):
    # sets large enough that the step functions have sub-1e-3 plateaus
    rng = np.random.default_rng(seed)
    live = rng.normal(0.7, 0.15, 1500)
    attack = rng.normal(0.4, 0.18, 1300)
    s = LabeledScoreSet(live, attack)
    assert eer(s) == pytest.approx(_grid_eer(live, attack), abs=1e-3)


@settings(max_examples=30, deadline=None)
@given(
    scale=st.floats(min_value=0.01, max_value=20.0),
    shift=st.floats(min_value=-5.0, max_value=5.0),
    seed=st.integers(0, 100),
)
def test_eer_affine_invariance(scale, shift, seed):
    rng = np.random.default_rng(seed)
    live = rng.normal(0.7, 0.2, 30)
    attack = rng.normal(0.3, 0.2, 30)
    base = eer(LabeledScoreSet(live, attack))
    mapped = eer(LabeledScoreSet(scale * live + shift, scale * attack + shift))
    assert mapped == pytest.approx(base, abs=1e-9)


def test_accuracy_cases():
    s = LabeledScoreSet([0.9, 0.8, 0.7], [0.2, 0.1, 0.3])
    assert accuracy(s, 0.5) == 1.0
    assert accuracy(s, 2.0) == pytest.approx(0.5)  # everything rejected
    # manual count on a mixed 6-element set at threshold 0.55:
    # live 0.9, 0.6 accepted; 0.5 rejected -> 2 correct live
    # attacks 0.7 accepted (wrong); 0.3, 0.55 rejected -> 2 correct
    s2 = LabeledScoreSet([0.9, 0.6, 0.5], [0.7, 0.3, 0.55])
    assert accuracy(s2, 0.55) == pytest.approx(4 / 6)


def test_accuracy_at_eer_threshold_balanced():
    rng = np.random.default_rng(3)
    live = rng.normal(0.75, 0.1, 300)
    attack = rng.normal(0.35, 0.1, 300)
    s = LabeledScoreSet(live, attack)
    rate, thr = eer_with_threshold(s)
    assert accuracy(s, thr) == pytest.approx(1.0 - rate, abs=1 / 300)


def test_config_validation():
    with pytest.raises(ConfigError, match="users and passphrases_per_user must be >= 1"):
        ExperimentConfig.from_dict({"users": 0})
    with pytest.raises(ConfigError, match="enroll_trials must be >= 3"):
        ExperimentConfig.from_dict({"enroll_trials": 2})
    with pytest.raises(ConfigError, match=re.escape(
        """bad experiment config: methods: ValueError("'nonsense' is not a valid ScoringMethod")"""
    )):
        ExperimentConfig.from_dict({"methods": ["nonsense"]})
    with pytest.raises(ConfigError, match="bad experiment config: .*bogus_key"):
        ExperimentConfig.from_dict({"bogus_key": 1})
    # replace attacks with no distance render no attack
    with pytest.raises(ConfigError, match="need at least one live trial and one attack"):
        ExperimentConfig.from_dict({"static_attacks": 0, "mobile_attacks": 0, "replace_attacks": 1})
    config = ExperimentConfig.from_dict({"mode": "text_independent", "users": 2})
    assert config.mode == ProfileMode.TEXT_INDEPENDENT
    config = ExperimentConfig.from_dict({"methods": ["probability", "combined"]})
    assert config.methods == (ScoringMethod.PROBABILITY, ScoringMethod.COMBINED)


@pytest.mark.parametrize("methods", [[], ["combined", "combined"]], ids=["empty", "repeated"])
def test_config_refuses_no_method_or_a_repeated_one(methods):
    # both once rendered the whole corpus: [] gave a report with no method
    # block, and a repeat wrote its scores.csv column twice
    match = "methods must be a non-empty list with no repeats"
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig.from_dict({"methods": methods})
    with pytest.raises(ConfigError, match=match):
        run_experiment(ExperimentConfig(methods=tuple(methods)))


@pytest.mark.parametrize("pose_changes, labels", [
    ([[0, 0]], "['a0_dx0', 'a0_dx0']"),
    ([[30, 0.05], [30, 0.05]], "['a0_dx0', 'a30_dx0.05', 'a30_dx0.05']"),
    ([[30, 0.05], [30.0, 0.050000001]], "['a0_dx0', 'a30_dx0.05', 'a30_dx0.05']"),
], ids=["base_pose_again", "repeated_change", "same_label_other_pose"])
def test_config_refuses_two_poses_with_one_report_label(pose_changes, labels):
    # the rows of two poses with one label once merged: [[0, 0]] read
    # n_live 4 and n_attack 2 in `overall` at 2 live trials and 1 attack
    with pytest.raises(ConfigError, match=re.escape(f"two poses share a report label in {labels}")):
        ExperimentConfig.from_dict(
            {"live_trials": 2, "static_attacks": 1, "pose_changes": pose_changes}
        )


@pytest.mark.parametrize("doc, match", [
    ({"users": 1.5}, r"bad experiment config: users: TypeError\('expected an integer, got 1.5'\)"),
    ({"transform": 1}, r"bad experiment config: transform: .*expected true or false"),
    ({"length_bands": [[2, 3, 4]]}, r"bad experiment config: length_bands: ValueError"),
    # the band draw divides by the sum: an infinite one once left numpy
    # raising ValueError in _plan, after the config had loaded
    ({"length_bands": [[2, 2], [3, 3]], "band_weights": [1e308, 1e308]}, "positive finite sum"),
    # every method scores both modes; there is no stability-weighted one
    ({"methods": ["correlation", "weighted"]},
     r"bad experiment config: methods: ValueError\(\"'weighted' is not a valid ScoringMethod"),
], ids=["users_fraction", "flag_number", "band_three_values", "weights_sum_overflows",
        "weighted_method"])
def test_config_refusal_names_the_field(doc, match):
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig.from_dict(doc)


@pytest.mark.parametrize("doc, shortest", [
    ({"length_bands": [[1, 3]], "band_weights": [1.0]}, 2),
    ({"phonemes_per_word": [1, 2]}, 2),
    ({"length_bands": [[2, 2], [1, 1]], "band_weights": [1.0, 0.5], "phonemes_per_word": [1, 1]}, 1),
], ids=["one_word", "one_phoneme_words", "weighted_short_band"])
def test_config_refuses_a_passphrase_too_short_to_score(doc, shortest):
    # such a passphrase once failed in scoring, after the corpus rendered
    with pytest.raises(ConfigError, match=f"may draw {shortest} phonemes; a score needs 3"):
        ExperimentConfig.from_dict(doc)


def test_config_bound_ignores_a_band_never_drawn():
    doc = {"length_bands": [[1, 1], [2, 2]], "band_weights": [0.0, 1.0]}
    assert ExperimentConfig.from_dict(doc).length_bands == ((1, 1), (2, 2))


@pytest.mark.parametrize("doc, match", [
    # pose changes DevicePose refuses: the handset through the mouth, and
    # tilted flat
    ({"pose_changes": [[0, -0.05]]}, r"render pose: x must be positive"),
    ({"pose_changes": [[90, 0]]}, r"render pose: \|alpha\| must be below pi/2"),
    # a mic beyond MAX_PATH_M - MAX_SOURCE_RADIUS of the mouth: these once
    # failed only after the enrollment renders had run
    ({"pose_changes": [[0, 20]]}, r"mic 20 m from the mouth, over 9.9 m"),
    ({"replace_distances": [20], "replace_attacks": 1}, r"mic 20 m from the mouth, over 9.9 m"),
], ids=["pose_behind_mouth", "pose_flat", "pose_far", "replace_far"])
def test_config_refuses_a_pose_no_render_takes(doc, match):
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig.from_dict(doc)


@pytest.mark.parametrize("threshold", [math.inf, -math.inf, math.nan])
def test_config_refuses_a_non_finite_threshold_from_a_library_caller(threshold):
    # read_json refuses these in a file; a caller can still pass them
    with pytest.raises(ConfigError, match="threshold must be a finite number or null"):
        ExperimentConfig(threshold=threshold).validate()


def test_config_rejects_rate_above_maximum():
    with pytest.raises(ConfigError, match=r"sample_rate must be in \[44100, 384000\] Hz"):
        ExperimentConfig.from_dict({"sample_rate": 384001})


@pytest.mark.parametrize("key, value", [
    # the tilt always rotates about the top mic
    ("pivot", "top"),
    # every experiment draws from the whole inventory, with a perturbed
    # vocal model per user
    ("oral_only", True),
    ("per_user_variation", False),
], ids=["pivot", "oral_only", "per_user_variation"])
def test_config_rejects_removed_pivot_key(key, value):
    with pytest.raises(ConfigError, match=f"bad experiment config: .*{key}"):
        ExperimentConfig.from_dict({key: value})


_SMALL = {
    "seed": 5,
    "users": 2,
    "passphrases_per_user": 2,
    "live_trials": 3,
    "static_attacks": 2,
    "mobile_attacks": 1,
    "length_bands": [[2, 3]],
    "band_weights": [1.0],
    "duration_range": [0.06, 0.09],
    "methods": ["correlation", "probability", "combined"],
}


@pytest.fixture(scope="module")
def small_report():
    return run_experiment(ExperimentConfig.from_dict(dict(_SMALL)))


def test_run_experiment_structure(small_report):
    assert set(small_report["methods"]) == {"correlation", "probability", "combined"}
    overall = small_report["methods"]["combined"]["overall"]
    assert overall["n_live"] == 2 * 2 * 3
    assert overall["n_attack"] == 2 * 2 * 3
    assert "by_attack" in small_report["methods"]["combined"]
    assert set(small_report["methods"]["combined"]["by_attack"]) == {
        "static_playback",
        "mobile_playback",
    }


def test_run_experiment_separates(small_report):
    overall = small_report["methods"]["combined"]["overall"]
    assert overall["eer"] <= 0.1


def test_run_experiment_reproducible(small_report):
    again = run_experiment(ExperimentConfig.from_dict(dict(_SMALL)))
    assert again == small_report


def test_write_report(tmp_path, small_report):
    write_report(small_report, tmp_path / "rep")
    assert (tmp_path / "rep" / "report.json").exists()
    assert (tmp_path / "rep" / "scores.csv").exists()
    assert (tmp_path / "rep" / "metrics.csv").exists()
    header = (tmp_path / "rep" / "scores.csv").read_text().splitlines()[0]
    assert header == "kind,user,passphrase,band,pose,correlation,probability,combined"


_TD_POSES = {
    **_SMALL,
    "users": 1,
    "live_trials": 2,
    "pose_changes": [[30, 0.0], [0, 0.05]],
    "replace_distances": [0.3],
    "replace_attacks": 1,
}
_TI = {
    **_SMALL,
    "mode": "text_independent",
    "users": 1,
    "live_trials": 2,
    "static_attacks": 1,
    "methods": ["correlation"],
}


def _pin_cpus(monkeypatch, cpus):
    # run_experiment forks one worker per CPU this process may run on
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _assert_no_worker_left():
    # waitpid raises once this process has no child, running or exited
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("doc", [_TD_POSES, _TI], ids=["td_poses_replace", "ti"])
def test_report_independent_of_worker_count(doc, monkeypatch):
    config = ExperimentConfig.from_dict(doc)
    reports = []
    for cpus in (1, 2, 3):
        _pin_cpus(monkeypatch, cpus)
        reports.append(json.dumps(run_experiment(config), sort_keys=True))
        _assert_no_worker_left()
    assert reports[0] == reports[1] == reports[2]


def test_worker_error_surfaces_with_its_class(monkeypatch):
    # the pool forks, so the workers see the patched renderer
    def fail(*args, **kwargs):
        raise DegenerateSignalError("no usable delay")

    monkeypatch.setattr(evaluation, "synthesize_live", fail)
    _pin_cpus(monkeypatch, 2)
    with pytest.raises(DegenerateSignalError, match="no usable delay"):
        run_experiment(ExperimentConfig.from_dict(dict(_SMALL)))
    _assert_no_worker_left()


def test_worker_error_is_the_same_at_any_worker_count(monkeypatch):
    # each passphrase's static playback renders come before its mobile
    # one; they fail last in time, but the first of them is the failure
    # a single process meets first
    def fail(labels, model, pose, scenario, *args, **kwargs):
        if scenario.kind == AttackKind.STATIC_PLAYBACK:
            time.sleep(0.2)
        raise DegenerateSignalError(scenario.kind.value)

    monkeypatch.setattr(evaluation, "synthesize_attack", fail)
    config = ExperimentConfig.from_dict(dict(_SMALL))
    for cpus in (1, 2, 3):
        _pin_cpus(monkeypatch, cpus)
        with pytest.raises(DegenerateSignalError, match="^static_playback$"):
            run_experiment(config)
