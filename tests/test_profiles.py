import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonotdoa.errors import SchemaError
from phonotdoa.geometry import REFERENCE_POSE
from phonotdoa.phonemes import INVENTORY
from phonotdoa.profiles import (
    PhonemeTemplate,
    ProfileMode,
    assemble_template,
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
    for t in profile.templates_for("pp0"):
        assert t.std_delay == 0.0
        assert t.trial_count == 3


def test_enrollment_stats_match_recomputation(enrolled):
    for t in enrolled.templates_for("pp0"):
        assert len(t.delays) == 3
        assert t.mean_delay == pytest.approx(np.mean(t.delays))
        assert t.std_delay == pytest.approx(np.std(t.delays, ddof=1))


def test_unit_jitter_reproduced_in_stds(source_model):
    # all-unit jitter model: with 3 trials the expected sample std is
    # sigma * c4(3) ~ 0.886; average over many positions to see it
    sources = {
        label: PhonemeSource(
            label=src.label, dy=src.dy, dz=src.dz, jitter_std=1.0,
            articulation=src.articulation, voiced=src.voiced,
            target_delay=src.target_delay,
        )
        for label, src in source_model.sources.items()
    }
    unit_model = VocalSourceModel(sources, source_model.reference_pose)
    labels = sorted(unit_model.labels)
    trials = _trials(unit_model, labels=labels, seed0=300)
    profile = enroll_text_dependent("u1", "pp0", trials, REFERENCE_POSE, DEVICE)
    stds = [t.std_delay for t in profile.templates_for("pp0")]
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


@pytest.fixture(scope="module")
def ti_profile(source_model):
    samples = {label: [] for label in source_model.labels}
    order = sorted(source_model.labels)
    for seed in range(3):
        utt = synthesize_live(order, source_model, REFERENCE_POSE, seed=600 + seed)
        for seg in utt.segments:
            samples[seg.label].append((utt.recording, seg))
    return enroll_text_independent("u2", samples, REFERENCE_POSE, DEVICE)


def test_text_independent_covers_inventory(ti_profile):
    assert ti_profile.mode == ProfileMode.TEXT_INDEPENDENT
    assert len(ti_profile.phoneme_templates) == 44


def test_text_independent_missing_phoneme(source_model):
    samples = {label: [] for label in source_model.labels}
    order = sorted(source_model.labels)
    utt = synthesize_live(order, source_model, REFERENCE_POSE, seed=11)
    for seg in utt.segments:
        samples[seg.label].append((utt.recording, seg))
    del samples["M"]
    with pytest.raises(SchemaError, match="missing phonemes: M$"):
        enroll_text_independent("u2", samples, REFERENCE_POSE, DEVICE)


def test_text_independent_stability_ordering(ti_profile):
    k_std = ti_profile.phoneme_templates["K"].std_delay
    vowel_stds = [
        ti_profile.phoneme_templates[l].std_delay
        for l in INVENTORY.vowels
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
                label=l, delay_samples=float(d), peak_value=1.0,
                method=Method.GCC_PHAT, delay_subsample=float(d),
            )
            for l, d in zip(labels, delays)
        ),
        sample_rate=rate,
        device=device,
    )


def test_normalize_identity():
    dyn = _dynamic([10.0, -5.0, 63.0])
    out = normalize_dynamic(dyn, DEVICE, DEVICE)
    assert np.array_equal(out.delays, dyn.delays)


def test_normalize_note5_to_s5():
    note5 = DeviceSpec(0.153, "note5")
    s5 = DeviceSpec(0.141, "s5")
    dyn = _dynamic([66.8], rate=192000, device=note5)
    out = normalize_dynamic(dyn, note5, s5)
    assert out.delays[0] == pytest.approx(66.8 * 0.141 / 0.153)
    assert out.delays[0] == pytest.approx(61.56, abs=0.01)


def test_normalize_rate_doubling():
    dyn = _dynamic([10.0, 20.0], rate=96000)
    out = normalize_dynamic(dyn, DEVICE, DEVICE, to_sample_rate=192000)
    assert np.array_equal(out.delays, [20.0, 40.0])
    assert out.sample_rate == 192000


@settings(max_examples=40, deadline=None)
@given(
    delays=st.lists(
        st.floats(min_value=-90, max_value=90, allow_nan=False), min_size=1, max_size=12
    ),
    spacing_a=st.floats(min_value=0.05, max_value=0.30),
    spacing_b=st.floats(min_value=0.05, max_value=0.30),
)
def test_normalize_roundtrip_property(delays, spacing_a, spacing_b):
    dev_a = DeviceSpec(spacing_a, "a")
    dev_b = DeviceSpec(spacing_b, "b")
    dyn = _dynamic(delays, device=dev_a)
    back = normalize_dynamic(normalize_dynamic(dyn, dev_a, dev_b), dev_b, dev_a)
    assert np.allclose(back.delays, dyn.delays, atol=1e-9)


def test_profile_roundtrip(enrolled, tmp_path):
    path = tmp_path / "p.json"
    save_profile(enrolled, path)
    back = load_profile(path)
    assert back.user_id == enrolled.user_id
    assert back.mode == enrolled.mode
    assert back.device == enrolled.device
    assert back.enrollment_pose == enrolled.enrollment_pose
    assert back.sample_rate == enrolled.sample_rate
    a = enrolled.templates_for("pp0")
    b = back.templates_for("pp0")
    assert a == b


def test_profile_roundtrip_text_independent(ti_profile, tmp_path):
    path = tmp_path / "ti.json"
    save_profile(ti_profile, path)
    back = load_profile(path)
    assert len(back.phoneme_templates) == 44
    assert back.phoneme_templates == ti_profile.phoneme_templates
    doc = json.loads(path.read_text())
    assert len(doc["phonemes"]) == 44


def test_profile_version_zero_rejected(enrolled, tmp_path):
    path = tmp_path / "v0.json"
    save_profile(enrolled, path)
    doc = json.loads(path.read_text())
    doc["version"] = 0
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="expected profile schema version 1, got 0"):
        load_profile(path)


def test_template_validation():
    with pytest.raises(SchemaError, match="std_delay must be non-negative"):
        PhonemeTemplate(label="AA", mean_delay=0.0, std_delay=-1.0, trial_count=3)
    with pytest.raises(SchemaError, match="trial_count must be at least 1"):
        PhonemeTemplate(label="AA", mean_delay=0.0, std_delay=0.0, trial_count=0)
