import functools
import json
import os
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonotdoa import profiles, tdoa
from phonotdoa.errors import InvalidPoseError, SchemaError
from phonotdoa.geometry import REFERENCE_POSE
from phonotdoa.phonemes import INVENTORY, VOWEL
from phonotdoa.profiles import (
    PhonemeTemplate,
    ProfileMode,
    assemble_template,
    check_trials,
    enroll_from_dynamics,
    enroll_text_dependent,
    enroll_text_independent,
    load_profile,
    normalize_dynamic,
    save_profile,
)
from phonotdoa.simulator import synthesize_live
from phonotdoa.sourcemodel import PhonemeSource, VocalSourceModel
from phonotdoa.tdoa import DeviceSpec, Method, TdoaDynamic, TdoaMeasurement

DEVICE = DeviceSpec(0.15, "reference")
LABELS = ["IY", "S", "AA", "T", "OW", "N"]


def _trials(source_model, n=3, jitter_scale=1.0, seed0=100, labels=LABELS):
    trials = []
    for i in range(n):
        utt = synthesize_live(
            labels, source_model, REFERENCE_POSE,
            seed=seed0 + i, jitter_scale=jitter_scale,
        )
        trials.append((utt.recording, utt.segments))
    return trials


@pytest.fixture(scope="module")
def enrolled(source_model):
    trials = _trials(source_model)
    return enroll_text_dependent("u1", "pp0", trials, REFERENCE_POSE, DEVICE)


def test_identical_trials_zero_std(source_model):
    utt = synthesize_live(LABELS, source_model, REFERENCE_POSE, seed=5)
    trials = [(utt.recording, utt.segments)] * 3
    profile = enroll_text_dependent("u1", "pp0", trials, REFERENCE_POSE, DEVICE)
    for t in profile.passphrase_templates["pp0"]:
        assert t.std_delay == 0.0
        assert len(t.delays) == 3


def test_enrollment_stats_match_recomputation(enrolled, ti_profile, tmp_path):
    # bit for bit the mean and std of each template's own delays: enrolled
    # profiles of both modes, and a stored one whose phonemes hold 3, 4, 8
    # and 9 delays, so templates of several counts, on both sides of
    # numpy's 8-way unrolled sums, are rebuilt side by side
    counts = (3, 4, 8, 9)
    rng = np.random.default_rng(0)
    phonemes = {
        label: {"label": label, "delays": (rng.standard_normal(counts[k % 4]) * 3.1 + 20).tolist()}
        for k, label in enumerate(INVENTORY.symbols)
    }
    path = tmp_path / "ti.json"
    path.write_text(json.dumps({
        "version": 3, "user_id": "u3", "mode": "text_independent", "sample_rate": 192000,
        "pose": asdict(REFERENCE_POSE), "passphrases": {}, "phonemes": phonemes,
    }))
    stored = load_profile(path)
    assert sorted({len(t.delays) for t in stored.phoneme_templates.values()}) == list(counts)
    assert all(len(t.delays) == 3 for t in enrolled.passphrase_templates["pp0"])
    for templates in (enrolled.passphrase_templates["pp0"],
                      ti_profile.phoneme_templates.values(), stored.phoneme_templates.values()):
        for t in templates:
            assert t.mean_delay == np.mean(t.delays)
            assert t.std_delay == np.std(t.delays, ddof=1)


def test_unit_jitter_reproduced_in_stds(source_model):
    # all-unit jitter model: with 3 trials the expected sample std is
    # sigma * c4(3) ~ 0.886; average over many positions to see it
    sources = {
        label: PhonemeSource(label=src.label, dy=src.dy, dz=src.dz, jitter_std=1.0)
        for label, src in source_model.sources.items()
    }
    unit_model = VocalSourceModel(sources)
    labels = sorted(unit_model.labels)
    trials = _trials(unit_model, labels=labels, seed0=300)
    profile = enroll_text_dependent("u1", "pp0", trials, REFERENCE_POSE, DEVICE)
    stds = [t.std_delay for t in profile.passphrase_templates["pp0"]]
    assert 0.6 <= np.mean(stds) <= 1.2


def test_too_few_trials(source_model):
    trials = _trials(source_model, n=2)
    with pytest.raises(SchemaError, match="need at least 3 trials, got 2"):
        enroll_text_dependent("u1", "pp0", trials, REFERENCE_POSE, DEVICE)


def test_label_sequence_mismatch(source_model):
    trials = _trials(source_model, n=2)
    extra = synthesize_live(
        LABELS + ["K"], source_model, REFERENCE_POSE, seed=7
    )
    trials.append((extra.recording, extra.segments))
    with pytest.raises(SchemaError, match="trial labels .* != "):
        enroll_text_dependent("u1", "pp0", trials, REFERENCE_POSE, DEVICE)


def _samples(source_model, seeds):
    """label -> (recording, segment) pairs of one whole-inventory
    utterance per seed."""
    samples = {label: [] for label in source_model.labels}
    for seed in seeds:
        utt = synthesize_live(sorted(source_model.labels), source_model, REFERENCE_POSE, seed=seed)
        for seg in utt.segments:
            samples[seg.label].append((utt.recording, seg))
    return samples


@pytest.fixture(scope="module")
def ti_profile(source_model):
    samples = _samples(source_model, (600, 601, 602))
    return enroll_text_independent("u2", samples, REFERENCE_POSE, DEVICE)


def test_text_independent_covers_inventory(ti_profile):
    assert ti_profile.mode == ProfileMode.TEXT_INDEPENDENT
    assert len(ti_profile.phoneme_templates) == 44


def test_text_independent_missing_phoneme(source_model):
    samples = _samples(source_model, (11,))
    del samples["M"]
    with pytest.raises(SchemaError, match="missing phonemes: M$"):
        enroll_text_independent("u2", samples, REFERENCE_POSE, DEVICE)


@pytest.mark.parametrize("case, message", [
    ("td_two_trials", "need at least 3 trials, got 2$"),
    ("td_two_phonemes", "need at least 3 phonemes, got 2$"),
    ("ti_missing_phoneme", "missing phonemes: M$"),
])
def test_enroll_wrappers_refuse_a_bad_set_before_estimating(source_model, monkeypatch, case,
                                                             message):
    # both adapters check the whole trial set before any segment is
    # measured, whichever module's estimate_tdoa would measure it
    if case == "ti_missing_phoneme":
        samples = _samples(source_model, (20, 21, 22))
        del samples["M"]
        call = functools.partial(enroll_text_independent, "u2", samples, REFERENCE_POSE, DEVICE)
    else:
        n, labels = (2, LABELS) if case == "td_two_trials" else (3, LABELS[:2])
        trials = _trials(source_model, n=n, labels=labels)
        call = functools.partial(enroll_text_dependent, "u1", "pp0", trials, REFERENCE_POSE, DEVICE)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    estimates = []
    real = tdoa.estimate_tdoa

    def counted(*args, **kwargs):
        estimates.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(tdoa, "estimate_tdoa", counted)
    monkeypatch.setattr(profiles, "estimate_tdoa", counted)
    with pytest.raises(SchemaError, match=message):
        call()
    assert estimates == []


@pytest.mark.parametrize("labels", [[], ["AA"], ["AA", "S"]])
def test_check_trials_refuses_a_passphrase_too_short_to_score(labels):
    # scoring needs scoring.MIN_SEQUENCE_LENGTH phonemes, so enrolling a
    # shorter passphrase would write a profile verify always refuses
    with pytest.raises(SchemaError, match=f"need at least 3 phonemes, got {len(labels)}$"):
        check_trials(ProfileMode.TEXT_DEPENDENT, [(192000, labels)] * 3)
    assert check_trials(ProfileMode.TEXT_DEPENDENT, [(192000, labels + ["K"] * 3)] * 3) == 192000


def test_text_independent_stability_ordering(ti_profile):
    k_std = ti_profile.phoneme_templates["K"].std_delay
    vowel_stds = [
        ti_profile.phoneme_templates[l].std_delay
        for l in INVENTORY.classes if INVENTORY.articulation_class(l) == VOWEL
    ]
    assert k_std > max(vowel_stds)


def test_assemble_template_single_and_order(ti_profile):
    single = assemble_template(ti_profile, ["AA"])
    assert len(single) == 1
    assert single[0] is ti_profile.phoneme_templates["AA"]

    labels = ["IY", "S", "K", "AA", "T", "OW", "N", "EH", "M", "Z"]
    out = assemble_template(ti_profile, labels)
    assert [t.label for t in out] == labels

    twice = assemble_template(ti_profile, ["S", "S"])
    assert twice[0] is twice[1]

    with pytest.raises(SchemaError, match=r"profile has no template for '\?\?'"):
        assemble_template(ti_profile, ["AA", "??"])


def _dynamic(delays, labels=None, rate=192000, device=DEVICE):
    labels = labels or ["?"] * len(delays)
    return TdoaDynamic(
        measurements=tuple(
            TdoaMeasurement(
                label=l, delay_samples=float(d), peak_value=1.0, method=Method.GCC_PHAT,
            )
            for l, d in zip(labels, delays)
        ),
        sample_rate=rate,
        device=device,
    )


def test_normalize_identity():
    dyn = _dynamic([10.0, -5.0, 63.0])
    out = normalize_dynamic(dyn, dyn.sample_rate)
    assert out == dyn


def test_normalize_rate_doubling():
    dyn = _dynamic([10.0, 20.0], rate=96000)
    out = normalize_dynamic(dyn, 192000)
    assert np.array_equal(out.delays, [20.0, 40.0])
    assert out.sample_rate == 192000
    # only the delays move
    assert (out.device, out.labels) == (dyn.device, dyn.labels)
    assert [(m.peak_value, m.method) for m in out.measurements] == [
        (m.peak_value, m.method) for m in dyn.measurements
    ]


@settings(max_examples=40, deadline=None)
@given(
    delays=st.lists(
        st.floats(min_value=-90, max_value=90, allow_nan=False), min_size=1, max_size=12
    ),
)
def test_normalize_roundtrip_property(delays):
    # 96000 / 44100 = 320 / 147 is no power of two, so the products round
    dyn = _dynamic(delays, rate=44100)
    there = normalize_dynamic(dyn, 96000)
    back = normalize_dynamic(there, 44100)
    assert (there.sample_rate, back.sample_rate) == (96000, 44100)
    assert np.allclose(back.delays, dyn.delays, rtol=0, atol=1e-9)


def test_profile_roundtrip(enrolled, tmp_path):
    path = tmp_path / "p.json"
    save_profile(enrolled, path)
    back = load_profile(path)
    assert back.user_id == enrolled.user_id
    assert back.mode == enrolled.mode
    assert back.enrollment_pose == enrolled.enrollment_pose
    assert back.sample_rate == enrolled.sample_rate
    a = enrolled.passphrase_templates["pp0"]
    b = back.passphrase_templates["pp0"]
    assert a == b  # statistics rebuilt from the stored delays, bit for bit
    doc = json.loads(path.read_text())
    assert doc["version"] == 3 and doc["phonemes"] == {}
    # the mic spacing is stored once, as the pose's l: no device block
    assert sorted(doc) == [
        "mode", "passphrases", "phonemes", "pose", "sample_rate", "user_id", "version",
    ]
    assert [set(t) for t in doc["passphrases"]["pp0"]] == [{"label", "delays"}] * len(LABELS)


def test_profile_roundtrip_text_independent(ti_profile, tmp_path):
    path = tmp_path / "ti.json"
    save_profile(ti_profile, path)
    back = load_profile(path)
    assert len(back.phoneme_templates) == 44
    assert back.phoneme_templates == ti_profile.phoneme_templates
    doc = json.loads(path.read_text())
    assert len(doc["phonemes"]) == 44
    assert all(set(t) == {"label", "delays"} for t in doc["phonemes"].values())


def test_profile_version_zero_rejected(enrolled, tmp_path):
    path = tmp_path / "v0.json"
    save_profile(enrolled, path)
    doc = json.loads(path.read_text())
    doc["version"] = 0
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="expected profile schema version 3, got 0"):
        load_profile(path)


def _td_positions(doc, *counts):
    # the passphrase's positions cut to the given numbers of delays
    positions = doc["passphrases"]["pp0"]
    for t, n in zip(positions, counts):
        t["delays"] = t["delays"][:n]


def _ti_set(doc, key, **fields):
    # the template filed under key, added if absent, with fields replaced
    template = doc["phonemes"].get(key, {"label": key, "delays": [1.0] * 3})
    doc["phonemes"][key] = {**template, **fields}


STORED_SETS = {
    # text-dependent, from the enrolled passphrase
    "td_two_trials": (
        "td", lambda d: _td_positions(d, *[2] * len(LABELS)), "need at least 3 trials, got 2",
    ),
    "td_two_phonemes": (
        "td", lambda d: d["passphrases"]["pp0"].__delitem__(slice(2, None)),
        "need at least 3 phonemes, got 2",
    ),
    "td_empty_passphrase": (
        "td", lambda d: d["passphrases"]["pp0"].clear(), "need at least 3 phonemes, got 0$",
    ),
    "td_unequal_counts": ("td", lambda d: _td_positions(d, 2), r"delay counts \[2, 3\], not one"),
    "td_with_phonemes": (
        "td", lambda d: d.update(phonemes={"AA": {"label": "AA", "delays": [1.0, 2.0, 3.0]}}),
        "text_dependent profile must hold passphrases and nothing else",
    ),
    "td_no_passphrases": (
        "td", lambda d: d.update(passphrases={}), "must hold passphrases and nothing else",
    ),
    "stray_statistic": (
        "td", lambda d: d["passphrases"]["pp0"][0].update(mean_delay=1e6), "not label and delays",
    ),
    # text-independent, from the enrolled inventory
    "ti_with_passphrases": (
        "ti", lambda d: d.update(passphrases={"pp0": []}),
        "text_independent profile must hold phoneme templates and nothing else",
    ),
    "ti_missing_phoneme": ("ti", lambda d: d["phonemes"].pop("M"), "missing phonemes: M$"),
    "ti_two_samples": (
        "ti", lambda d: _ti_set(d, "K", delays=[1.0, 2.0]), "fewer than 3 samples: K$",
    ),
    "ti_unknown_label": ("ti", lambda d: _ti_set(d, "XX"), "unknown phoneme label 'XX'"),
    # an unknown label is named as such, however few its samples
    "ti_unknown_label_once": (
        "ti", lambda d: _ti_set(d, "XX", delays=[1.0]), "unknown phoneme label 'XX'",
    ),
    "ti_misfiled": ("ti", lambda d: _ti_set(d, "AA", label="IY"), "filed under another label"),
}


@pytest.mark.parametrize("case", sorted(STORED_SETS))
def test_load_refuses_stored_delays_enroll_would_refuse(enrolled, ti_profile, tmp_path, case):
    # a profile loads only from delays that enrollment could have written
    which, edit, message = STORED_SETS[case]
    path = tmp_path / "p.json"
    save_profile(enrolled if which == "td" else ti_profile, path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=message):
        load_profile(path)


def test_template_validation():
    with pytest.raises(SchemaError, match="std_delay must be non-negative"):
        PhonemeTemplate(label="AA", mean_delay=0.0, std_delay=-1.0)


def test_enroll_refuses_trials_off_the_pose_spacing():
    # the enrollment pose's l is the profile's record of the handset, so
    # every trial must be measured on that spacing
    s5 = DeviceSpec(0.141, "s5")
    pose = REFERENCE_POSE.with_spacing(s5.mic_spacing_m)
    labels = ["AA", "S", "K"]
    dynamics = [_dynamic([40.0, 50.0, 60.0], labels, device=s5) for _ in range(3)]
    profile = enroll_from_dynamics("u1", ProfileMode.TEXT_DEPENDENT, dynamics, pose, "pp0")
    assert profile.enrollment_pose.l == 0.141
    with pytest.raises(SchemaError, match="mic spacing 0.15 m"):
        enroll_from_dynamics("u1", ProfileMode.TEXT_DEPENDENT, dynamics, REFERENCE_POSE, "pp0")
    dynamics[1] = _dynamic([40.0, 50.0, 60.0], labels)
    with pytest.raises(SchemaError, match="mic spacing 0.141 m"):
        enroll_from_dynamics("u1", ProfileMode.TEXT_DEPENDENT, dynamics, pose, "pp0")


@pytest.mark.parametrize("edit, error, message", [
    # a version-3 file holds no device block, nor any other stray field
    (lambda doc: doc.update(device={"name": "s5", "mic_spacing_m": 0.141}),
     SchemaError, r"unknown profile fields \['device'\]"),
    (lambda doc: doc.update(notes="x"), SchemaError, r"unknown profile fields \['notes'\]"),
    # verify measures on the pose's spacing, which DeviceSpec bounds
    (lambda doc: doc["pose"].update(l1=0.34, l=0.35), InvalidPoseError, "mic spacing 0.35 m"),
], ids=["device_block", "stray_field", "spacing_out_of_range"])
def test_load_refuses_stray_fields_and_spacing_out_of_range(enrolled, tmp_path, edit, error, message):
    path = tmp_path / "p.json"
    save_profile(enrolled, path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(error, match=message):
        load_profile(path)
