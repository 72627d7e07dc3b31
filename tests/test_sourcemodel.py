import math

import numpy as np
import pytest

from phonotdoa.errors import ConfigError, SchemaError
from phonotdoa.geometry import REFERENCE_POSE, pose_to_tdoa
from phonotdoa.phonemes import INVENTORY, NASAL
from phonotdoa.sourcemodel import (
    MAX_SOURCE_RADIUS,
    PHONEME_TARGETS,
    PhonemeSource,
    VocalSourceModel,
    _solve_dy,
    _solve_dz,
    build_default_source_model,
)


def test_targets_cover_inventory():
    assert set(PHONEME_TARGETS) == set(INVENTORY.symbols)


def test_shipped_file_matches_regeneration(source_model):
    rebuilt = build_default_source_model()
    assert set(source_model.labels) == set(rebuilt.labels)
    for label in rebuilt.labels:
        a, b = source_model.source(label), rebuilt.source(label)
        assert a.dy == pytest.approx(b.dy, abs=1e-9)
        assert a.dz == pytest.approx(b.dz, abs=1e-9)
        assert a.jitter_std == b.jitter_std


def test_solved_positions_hit_targets(source_model):
    for label in source_model.labels:
        src = source_model.source(label)
        got = pose_to_tdoa(REFERENCE_POSE, (src.dy, src.dz), 192000)
        assert got == pytest.approx(src.target_delay, abs=1e-6)


def test_offsets_inside_source_region(source_model):
    for label in source_model.labels:
        src = source_model.source(label)
        assert math.hypot(src.dy, src.dz) <= MAX_SOURCE_RADIUS


def test_nasals_high_orals_on_axis(source_model):
    for label in source_model.labels:
        src = source_model.source(label)
        if INVENTORY.articulation_class(label) == NASAL:
            assert src.dz > 0.05
            assert src.target_delay < -20
        else:
            assert src.dz == 0.0
            assert src.target_delay > 30


def test_effective_source_reproduces_jittered_delay(source_model):
    # jitters kept inside each phoneme's representable delay window
    for label, jitters in (
        ("AA", (-4.0, 0.0, 2.5)),
        ("K", (-8.0, 0.0, 8.0)),
        ("M", (-1.5, 0.0, 1.0)),
    ):
        for jitter in jitters:
            dy, dz = source_model.effective_source(label, jitter)
            got = pose_to_tdoa(REFERENCE_POSE, (dy, dz), 192000)
            want = source_model.reference_delay(label) + jitter
            assert got == pytest.approx(want, abs=1e-6)


def test_effective_source_clamps_wild_jitter(source_model):
    dy, dz = source_model.effective_source("K", 500.0)
    assert math.hypot(dy, dz) <= MAX_SOURCE_RADIUS
    got = pose_to_tdoa(REFERENCE_POSE, (dy, dz), 192000)
    assert got < 80.0  # clamped to the representable window


def test_solvers_refuse_unreachable_delays():
    with pytest.raises(ConfigError, match="delay 90.00 not reachable on the z = 0.000 m line"):
        _solve_dy(90.0, 0.0, REFERENCE_POSE, 340.0)
    # reachable on the line, but past the 2 cm cap toward the handset
    with pytest.raises(ConfigError, match="delay 72.00 not reachable on the z = 0.000 m line"):
        _solve_dy(72.0, 0.0, REFERENCE_POSE, 340.0)
    # reachable on the line, but beyond the solve radius behind the mouth
    with pytest.raises(ConfigError, match="delay 30.00 not reachable on the z = 0.000 m line"):
        _solve_dy(30.0, 0.0, REFERENCE_POSE, 340.0)
    with pytest.raises(ConfigError, match="delay 200.00 not reachable on the y = 0.000 m line"):
        _solve_dz(200.0, 0.0, REFERENCE_POSE, 340.0)
    # a positive delay lies below the mouth, outside the nasal window
    with pytest.raises(ConfigError, match="delay 50.00 not reachable on the y = 0.000 m line"):
        _solve_dz(50.0, 0.0, REFERENCE_POSE, 340.0)


def test_tilted_reference_pose_rejected(source_model):
    tilted = REFERENCE_POSE.with_(alpha=0.1)
    with pytest.raises(ConfigError, match="reference pose must be vertical"):
        VocalSourceModel(source_model.sources, tilted)
    doc = source_model.to_dict()
    doc["reference_pose"]["alpha"] = 0.1
    with pytest.raises(ConfigError, match="reference pose must be vertical"):
        VocalSourceModel.from_dict(doc)


def test_unknown_label(source_model):
    with pytest.raises(SchemaError, match="no source model for 'QQ'"):
        source_model.source("QQ")


def test_perturbed_model_distinct_but_stable(source_model):
    rng1 = np.random.default_rng(10)
    rng2 = np.random.default_rng(10)
    a = source_model.perturbed(rng1)
    b = source_model.perturbed(rng2)
    for label in source_model.labels:
        assert a.source(label).dy == b.source(label).dy
    c = source_model.perturbed(np.random.default_rng(11))
    moved = sum(
        a.source(label).dy != c.source(label).dy for label in source_model.labels
    )
    assert moved > 30


def test_perturbed_model_respects_radius(source_model):
    for seed in range(20):
        m = source_model.perturbed(np.random.default_rng(seed))
        for label in m.labels:
            src = m.source(label)
            assert math.hypot(src.dy, src.dz) <= MAX_SOURCE_RADIUS + 1e-12


def test_model_rejects_out_of_region_source():
    src = PhonemeSource(
        label="AA", dy=0.2, dz=0.0, jitter_std=1.0,
        articulation="vowel", voiced=True, target_delay=50.0,
    )
    with pytest.raises(ConfigError, match="outside the 0.1 m mouth/nasal region"):
        VocalSourceModel({"AA": src})


def test_roundtrip_dict(source_model):
    doc = source_model.to_dict()
    back = VocalSourceModel.from_dict(doc)
    for label in source_model.labels:
        assert back.source(label) == source_model.source(label)
