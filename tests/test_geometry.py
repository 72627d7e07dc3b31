import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phonotdoa.errors import DegenerateSignalError, InvalidPoseError, NoSolutionError
from phonotdoa.geometry import (
    REFERENCE_POSE,
    DevicePose,
    estimate_face_distance,
    make_beep,
    mic_positions,
    path_difference,
    pose_to_tdoa,
    solve_on_line,
    solve_source_distance,
    transform_tdoa,
)
from phonotdoa.simulator import synthesize_beep_scene

FS = 192000


def test_pose_validation():
    with pytest.raises(InvalidPoseError):
        DevicePose(x=0.0, l1=0.1, l2=0.01, l=0.15)
    with pytest.raises(InvalidPoseError):
        DevicePose(x=0.03, l1=0.1, l2=0.01, l=0.15, alpha=math.pi / 2)
    with pytest.raises(InvalidPoseError):
        DevicePose(x=0.03, l1=-0.1, l2=0.01, l=0.15)


def test_symmetric_pose_zero_delay():
    pose = DevicePose(x=0.05, l1=0.075, l2=0.075, l=0.15)
    assert pose_to_tdoa(pose, (0.0, 0.0), FS) == pytest.approx(0.0, abs=1e-12)


def test_reference_pose_hand_value():
    # sqrt(0.14^2 + 0.03^2) - sqrt(0.01^2 + 0.03^2) = sqrt(0.0205) - sqrt(0.0010)
    expected = (math.sqrt(0.0205) - math.sqrt(0.0010)) / 340.0 * FS
    got = pose_to_tdoa(REFERENCE_POSE, (0.0, 0.0), FS)
    assert got == pytest.approx(expected, abs=1e-9)
    assert got == pytest.approx(63.0, abs=0.05)
    assert 46.0 <= got <= 65.0


def test_delay_linear_in_sample_rate():
    d1 = pose_to_tdoa(REFERENCE_POSE, (0.01, -0.005), FS)
    d2 = pose_to_tdoa(REFERENCE_POSE, (0.01, -0.005), 2 * FS)
    assert d2 == pytest.approx(2.0 * d1, rel=1e-12)


def test_mic_positions_vertical():
    (ty, tz), (by, bz) = mic_positions(REFERENCE_POSE)
    assert (ty, tz) == (0.03, 0.14)
    assert by == pytest.approx(0.03)
    assert bz == pytest.approx(-0.01)


def test_solve_recovers_forward_value():
    tdoa = pose_to_tdoa(REFERENCE_POSE, (0.0, 0.0), FS)
    x = solve_source_distance(tdoa, 0.14, 0.01, FS)
    assert x == pytest.approx(0.03, abs=1e-5)


def test_solve_underdetermined_and_no_solution():
    with pytest.raises(NoSolutionError, match="every source distance fits"):
        solve_source_distance(0.0, 0.075, 0.075, FS)
    with pytest.raises(NoSolutionError, match="symmetric mics"):
        solve_source_distance(10.0, 0.075, 0.075, FS)
    # delta_d = 0.2 m exceeds l1 - l2 = 0.13 m
    tdoa_for_point2 = 0.2 / 340.0 * FS
    with pytest.raises(NoSolutionError, match="not below"):
        solve_source_distance(tdoa_for_point2, 0.14, 0.01, FS)
    # zero delay with asymmetric mics: x -> infinity
    with pytest.raises(NoSolutionError, match="x -> infinity"):
        solve_source_distance(0.0, 0.14, 0.01, FS)
    # sign inconsistent with geometry (nasal-like negative delay)
    with pytest.raises(NoSolutionError, match="sign inconsistent"):
        solve_source_distance(-30.0, 0.14, 0.01, FS)


@pytest.mark.parametrize("alpha", [0.0, 1e-6])
def test_angle_identity_at_zero(alpha):
    # exact at 0 (no pose change); at a vanishing tilt, identity up to
    # the source-distance solver tolerance (1e-6 m)
    tdoa = pose_to_tdoa(REFERENCE_POSE, (0.0, 0.0), FS)
    out = transform_tdoa(tdoa, REFERENCE_POSE, alpha=alpha, sample_rate=FS)
    assert out == pytest.approx(tdoa, abs=0.01)


def _hand_transform(tdoa1, l1, l2, l, alpha):
    """Independent evaluation of the tilt transform used as an oracle."""
    delta = tdoa1 * 340.0 / FS
    lo, hi = 1e-6, 10.0
    for _ in range(200):
        mid = (lo + hi) / 2
        val = math.sqrt(l1**2 + mid**2) - math.sqrt(l2**2 + mid**2)
        if val > delta:
            lo = mid
        else:
            hi = mid
    x = (lo + hi) / 2
    d1 = math.sqrt(l1**2 + x**2)
    bz = l1 - l * math.cos(alpha)  # rotation about the top mic
    d2 = math.sqrt((l * math.sin(alpha) + x) ** 2 + bz**2)
    return (d1 - d2) / 340.0 * FS


@pytest.mark.parametrize("alpha_deg", [15.0, 30.0, 45.0])
def test_angle_transform_matches_hand_evaluation(alpha_deg):
    alpha = math.radians(alpha_deg)
    tdoa1 = pose_to_tdoa(REFERENCE_POSE, (0.0, 0.0), FS)
    got = transform_tdoa(tdoa1, REFERENCE_POSE, alpha=alpha, sample_rate=FS)
    want = _hand_transform(tdoa1, 0.14, 0.01, 0.15, alpha)
    assert got == pytest.approx(want, abs=1e-3)


def test_distance_identity_at_zero():
    tdoa = pose_to_tdoa(REFERENCE_POSE, (0.0, 0.0), FS)
    out = transform_tdoa(tdoa, REFERENCE_POSE, delta_x=0.0, sample_rate=FS)
    assert out == tdoa  # exact: no pose change


def test_distance_transform_hand_value():
    # x = 0.03, delta = 0.27: (sqrt(0.0196+0.09) - sqrt(0.0001+0.09)) scaled
    tdoa = pose_to_tdoa(REFERENCE_POSE, (0.0, 0.0), FS)
    out = transform_tdoa(tdoa, REFERENCE_POSE, delta_x=0.27, sample_rate=FS)
    want = (math.sqrt(0.0196 + 0.09) - math.sqrt(0.0001 + 0.09)) / 340.0 * FS
    assert out == pytest.approx(want, abs=2e-3)
    assert out == pytest.approx(17.4, abs=0.1)


def test_distance_transform_monotone_shrink():
    tdoa = pose_to_tdoa(REFERENCE_POSE, (0.0, 0.0), FS)
    prev = abs(tdoa)
    for dx in np.linspace(0.05, 4.0, 25):
        cur = abs(transform_tdoa(tdoa, REFERENCE_POSE, delta_x=float(dx), sample_rate=FS))
        assert cur < prev
        prev = cur


def test_distance_transform_invalid_pose():
    tdoa = pose_to_tdoa(REFERENCE_POSE, (0.0, 0.0), FS)
    with pytest.raises(InvalidPoseError):
        transform_tdoa(tdoa, REFERENCE_POSE, delta_x=-5.0, sample_rate=FS)


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(min_value=0.01, max_value=0.5),
    l1=st.floats(min_value=0.05, max_value=0.2),
    l2=st.floats(min_value=0.0, max_value=0.04),
)
def test_forward_inverse_consistency(x, l1, l2):
    if abs(l1 - l2) < 1e-3:
        return
    pose = DevicePose(x=x, l1=l1, l2=l2, l=l1 + l2)
    tdoa = pose_to_tdoa(pose, (0.0, 0.0), FS)
    if tdoa <= 0:
        return
    got = solve_source_distance(tdoa, l1, l2, FS)
    assert got == pytest.approx(x, abs=1e-5)


_VERTICAL_POSES = dict(
    x=st.floats(min_value=0.01, max_value=0.2),
    l1=st.floats(min_value=0.0, max_value=0.2),
    l=st.floats(min_value=0.1, max_value=0.2),
    dy=st.floats(min_value=-0.1, max_value=0.0),
    dz=st.floats(min_value=-0.1, max_value=0.1),
)


def _vertical_pose(x, l1, l):
    return DevicePose(x=x, l1=l1, l2=max(l - l1, 0.0), l=l)


@given(**_VERTICAL_POSES)
def test_solve_on_line_round_trip_horizontal(x, l1, l, dy, dz):
    # forward model -> closed form, on the horizontal line z = dz
    pose = _vertical_pose(x, l1, l)
    r1, r2 = math.hypot(x - dy, l1 - dz), math.hypot(x - dy, l1 - l - dz)
    assume(abs((x - dy) * (1.0 / r1 - 1.0 / r2)) > 1e-3)  # well conditioned
    d = path_difference(pose, (dy, dz))
    assert solve_on_line(d, l1, l1 - l, z=dz) == pytest.approx(x - dy, abs=1e-12)


@given(**_VERTICAL_POSES)
def test_solve_on_line_round_trip_vertical(x, l1, l, dy, dz):
    # forward model -> closed form, on the vertical line y = dy
    pose = _vertical_pose(x, l1, l)
    r1, r2 = math.hypot(x - dy, l1 - dz), math.hypot(x - dy, l1 - l - dz)
    assume(abs((dz - l1) / r1 - (dz - l1 + l) / r2) > 1e-2)  # well conditioned
    d = path_difference(pose, (dy, dz))
    assert solve_on_line(d, l1, l1 - l, h=x - dy) == pytest.approx(dz, abs=1e-12)


def test_solve_on_line_unreachable():
    # horizontal line z = 0 of the reference pose: 0 < d <= 0.13 m
    for d in (0.0, -0.01, 0.131, math.nan):
        with pytest.raises(NoSolutionError, match="not reachable on the z = 0.0000 m line"):
            solve_on_line(d, 0.14, -0.01, z=0.0)
    assert solve_on_line(0.13, 0.14, -0.01, z=0.0) == 0.0
    for d in (0.16, -0.2, math.inf):
        with pytest.raises(NoSolutionError, match="not below the mic spacing 0.15000 m"):
            solve_on_line(d, 0.14, -0.01, h=0.03)


def test_pose_to_tdoa_continuity():
    # finite-difference smoothness sweep over each pose field
    base = dict(x=0.05, l1=0.12, l2=0.02, l=0.14, alpha=0.1)
    for field in ("x", "l1", "l2", "alpha"):
        eps = 1e-7
        lo = dict(base)
        hi = dict(base)
        lo[field] -= eps
        hi[field] += eps
        d_lo = pose_to_tdoa(DevicePose(**lo), (0.004, -0.003), FS)
        d_hi = pose_to_tdoa(DevicePose(**hi), (0.004, -0.003), FS)
        assert abs(d_hi - d_lo) < 1.0  # no jumps at 1e-7 perturbation


def test_transform_respects_triangle_inequality():
    tdoa = pose_to_tdoa(REFERENCE_POSE, (0.0, 0.0), FS)
    for alpha_deg in (0, 20, 40, 60):
        for dx in (0.0, 0.1, 0.5):
            out = transform_tdoa(
                tdoa, REFERENCE_POSE, alpha=math.radians(alpha_deg),
                delta_x=dx, sample_rate=FS,
            )
            assert abs(out) * 340.0 / FS <= REFERENCE_POSE.l + 1e-9


def test_transform_outside_mic_geometry_is_typed_error():
    # a NaN tilt fails the DevicePose check on the moved pose; the
    # check is a raise, not an assert, so it also holds under python -O
    tdoa = pose_to_tdoa(REFERENCE_POSE, (0.0, 0.0), FS)
    with pytest.raises(InvalidPoseError):
        transform_tdoa(tdoa, REFERENCE_POSE, alpha=math.nan, sample_rate=FS)


def test_with_spacing_holds_the_bottom_mic():
    # at its own l the pose itself: 0.15 - 0.01 is 0.13999999999999999
    assert REFERENCE_POSE.with_spacing(0.15) is REFERENCE_POSE
    for spacing in (0.05, 0.10, 0.141, 0.30):
        pose = REFERENCE_POSE.with_spacing(spacing)
        assert (pose.x, pose.l2, pose.l, pose.alpha) == (0.03, 0.01, spacing, 0.0)
        assert pose.l1 == spacing - 0.01
        assert mic_positions(pose)[1] == pytest.approx(mic_positions(REFERENCE_POSE)[1], abs=1e-15)


@pytest.mark.parametrize("spacing", [0.05, 0.10, 0.141, 0.151, 0.153, 0.30])
def test_spacing_transform_matches_the_forward_model(source_model, spacing):
    # every inventory source, solved at the reference pose and re-evaluated
    # on another handset, lands where the forward model puts it
    handset = REFERENCE_POSE.with_spacing(spacing)
    for label in source_model.labels:
        src = source_model.source(label)
        moved = transform_tdoa(
            source_model.reference_delay(label), REFERENCE_POSE, sample_rate=FS, spacing=spacing
        )
        assert moved == pytest.approx(pose_to_tdoa(handset, (src.dy, src.dz), FS), abs=0.005)


def test_spacing_transform_identity_at_the_pose_l():
    assert transform_tdoa(40.0, REFERENCE_POSE, sample_rate=FS, spacing=0.15) == 40.0
    with pytest.raises(InvalidPoseError):  # the top mic below the mouth
        transform_tdoa(40.0, REFERENCE_POSE, sample_rate=FS, spacing=0.005)


def test_make_beep_shape():
    beep = make_beep(192000)
    assert len(beep) == 9600  # 50 ms at 192 kHz
    spec = np.abs(np.fft.rfft(beep))
    freqs = np.fft.rfftfreq(len(beep), 1 / 192000)
    band_energy = spec[(freqs >= 17500) & (freqs <= 23500)].sum()
    assert band_energy / spec.sum() > 0.95
    with pytest.raises(InvalidPoseError):
        make_beep(44100)


def test_face_distance_on_simulated_scene():
    beep = make_beep(192000)
    for d in (0.10, 0.15, 0.5):
        rec = synthesize_beep_scene(d, seed=3)
        est = estimate_face_distance(rec, beep)
        assert est == pytest.approx(d, abs=0.02)


def test_face_distance_sweep_offsets():
    # handset pushed 5/10/15 cm out from the 3 cm base pose
    beep = make_beep(192000)
    for offset in (0.05, 0.10, 0.15):
        d = 0.03 + offset
        errs = []
        for seed in range(5):
            rec = synthesize_beep_scene(d, seed=seed)
            errs.append(estimate_face_distance(rec, beep) - d)
        assert abs(np.mean(errs)) < 0.02
        assert np.std(errs) < 0.03


def test_face_distance_echo_free():
    rng = np.random.default_rng(0)
    rec_top = np.clip(rng.normal(0, 0.02, 50000), -1, 1)
    rec_bot = np.clip(rng.normal(0, 0.02, 50000), -1, 1)
    from phonotdoa.audio_io import StereoRecording

    rec = StereoRecording(192000, rec_top, rec_bot)
    with pytest.raises(DegenerateSignalError, match="qualifying correlation peaks, need 2"):
        estimate_face_distance(rec, make_beep(192000))
