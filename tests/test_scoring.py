import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonotdoa.errors import SchemaError
from phonotdoa.profiles import PhonemeTemplate
from phonotdoa.scoring import ScoringMethod, Verdict, decide, score_dynamic
from phonotdoa.tdoa import DeviceSpec, Method, TdoaDynamic, TdoaMeasurement

DEVICE = DeviceSpec(0.15, "reference")


def _dynamic(delays, labels):
    return TdoaDynamic(
        measurements=tuple(
            TdoaMeasurement(
                label=l, delay_samples=float(d), peak_value=1.0, method=Method.GCC_PHAT,
            )
            for l, d in zip(labels, delays)
        ),
        sample_rate=192000,
        device=DEVICE,
    )


def _templates(means, labels, stds=None):
    stds = stds if stds is not None else [1.0] * len(means)
    return [
        PhonemeTemplate(label=l, mean_delay=float(m), std_delay=float(s))
        for l, m, s in zip(labels, means, stds)
    ]


LAB4 = ["AA", "S", "K", "OW"]
LAB5 = ["AA", "S", "K", "OW", "M"]


def test_correlation_perfect_match():
    means = [50.0, 55.0, 48.0, 52.0, -30.0]
    dyn = _dynamic(means, LAB5)
    assert score_dynamic(dyn, _templates(means, LAB5)).correlation == pytest.approx(1.0)


def test_correlation_anti_match():
    means = [50.0, 55.0, 48.0, 52.0, -30.0]
    flipped = [100.0 - m for m in means]  # negated and shifted
    dyn = _dynamic(flipped, LAB5)
    assert score_dynamic(dyn, _templates(means, LAB5)).correlation == pytest.approx(-1.0)


def test_correlation_constant_dynamic_degenerate():
    dyn = _dynamic([63.0, 63.0, 63.0, 63.0], LAB4)
    templates = _templates([50.0, 55.0, 48.0, 52.0], LAB4)
    # the degenerate correlation maps to 0
    sim = score_dynamic(dyn, templates)
    assert sim.correlation == 0.0
    # and contributes the neutral 0.5 inside the combined score
    prob = sim.probability
    assert sim.combined == pytest.approx((0.5 + prob) / 2.0)


def test_correlation_length_mismatch():
    dyn = _dynamic([1.0, 2.0, 3.0], ["AA", "S", "K"])
    with pytest.raises(SchemaError, match="dynamic has 3 phonemes, templates 2"):
        score_dynamic(dyn, _templates([1.0, 2.0], ["AA", "S"]))


def test_correlation_needs_three():
    dyn = _dynamic([1.0, 2.0], ["AA", "S"])
    with pytest.raises(SchemaError, match="need at least 3 phonemes, got 2"):
        score_dynamic(dyn, _templates([1.0, 2.0], ["AA", "S"]))


def test_label_mismatch_rejected():
    dyn = _dynamic([1.0, 2.0, 3.0], ["AA", "S", "K"])
    with pytest.raises(SchemaError, match="label mismatch: measured 'K' vs template 'M'"):
        score_dynamic(dyn, _templates([1.0, 2.0, 3.0], ["AA", "S", "M"]))


def test_probability_exact_match_is_one():
    means = [50.0, 55.0, 48.0, 52.0]
    dyn = _dynamic(means, LAB4)
    assert score_dynamic(dyn, _templates(means, LAB4)).probability == pytest.approx(1.0)


def test_probability_one_sigma_offset():
    # single phoneme off by exactly one std: kernel gives exp(-1/2)
    means = [50.0, 55.0, 48.0]
    labels = ["AA", "S", "K"]
    stds = [2.0, 1.0, 1.0]
    delays = [52.0, 55.0, 48.0]
    got = score_dynamic(_dynamic(delays, labels), _templates(means, labels, stds)).probability
    want = (math.exp(-0.5) + 1.0 + 1.0) / 3.0
    assert got == pytest.approx(want, abs=1e-12)
    assert math.exp(-0.5) == pytest.approx(0.6065, abs=1e-4)


def test_probability_std_floor():
    means = [50.0, 55.0, 48.0]
    labels = ["AA", "S", "K"]
    stds = [0.0, 0.0, 0.0]  # floored to 0.5
    delays = [50.5, 55.0, 48.0]
    got = score_dynamic(_dynamic(delays, labels), _templates(means, labels, stds)).probability
    want = (math.exp(-0.5) + 2.0) / 3.0
    assert got == pytest.approx(want, abs=1e-12)


def test_probability_monte_carlo_oracle():
    # live jitter sigma against templates with the same sigma: the mean
    # kernel value approaches E[exp(-Z^2/2)] = 1/sqrt(2) for Z ~ N(0,1)
    rng = np.random.default_rng(0)
    mc = np.exp(-0.5 * rng.standard_normal(100_000) ** 2).mean()
    assert mc == pytest.approx(1.0 / math.sqrt(2.0), abs=3e-3)

    labels = ["AA", "S", "K", "OW"]
    means = [50.0, 55.0, 48.0, 52.0]
    sigma = 2.0
    vals = []
    for i in range(4000):
        delays = means + rng.normal(0.0, sigma, 4)
        vals.append(
            score_dynamic(
                _dynamic(delays, labels), _templates(means, labels, [sigma] * 4)
            ).probability
        )
    assert np.mean(vals) == pytest.approx(mc, abs=0.01)


def test_probability_monotone_in_offset():
    means = [50.0, 55.0, 48.0]
    labels = ["AA", "S", "K"]
    templates = _templates(means, labels)
    prev = 1.1
    for off in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0):
        got = score_dynamic(
            _dynamic([means[0] + off, means[1], means[2]], labels), templates
        ).probability
        assert got < prev
        prev = got
    assert prev > 0.0  # stays in (0, 1]


def test_combined_perfect_match():
    means = [50.0, 55.0, 48.0, 52.0]
    dyn = _dynamic(means, LAB4)
    assert score_dynamic(dyn, _templates(means, LAB4)).combined == pytest.approx(1.0)


def test_combined_is_mean_of_parts():
    means = [50.0, 55.0, 48.0, 52.0, -30.0]
    delays = [52.0, 53.0, 50.0, 51.0, -27.0]
    dyn = _dynamic(delays, LAB5)
    templates = _templates(means, LAB5)
    sim = score_dynamic(dyn, templates)
    rho = sim.correlation
    prob = sim.probability
    want = ((rho + 1.0) / 2.0 + prob) / 2.0
    assert sim.combined == pytest.approx(want, abs=1e-12)


def test_combined_midpoint_arithmetic():
    # rescaled zero correlation (0.5) averaged with probability 0.5
    assert ((0.0 + 1.0) / 2.0 + 0.5) / 2.0 == pytest.approx(0.5)


def test_decide_rules():
    means = [50.0, 55.0, 48.0]
    labels = ["AA", "S", "K"]
    sim = score_dynamic(_dynamic(means, labels), _templates(means, labels))
    assert sim.combined == pytest.approx(1.0)
    combined = ScoringMethod.COMBINED
    assert decide(sim, 0.5, combined).verdict == Verdict.LIVE
    assert decide(sim, 1.0, combined).verdict == Verdict.REPLAY  # tie fails closed
    low = score_dynamic(
        _dynamic([10.0, 80.0, -40.0], labels), _templates(means, labels)
    )
    assert decide(low, 0.5, combined).verdict == Verdict.REPLAY
    doc = decide(sim, 0.5, combined).to_json_dict()
    assert (doc["verdict"], doc["method"]) == ("live", "combined")
    assert set(doc["scores"]) == {"correlation", "probability", "combined"}


def test_decide_thresholds_the_score_of_its_method():
    # one score, every method's value: the method alone picks the verdict
    labels = ["AA", "S", "K", "M"]
    means = [50.0, 55.0, 48.0, 52.0]
    sim = score_dynamic(_dynamic([60.0, 65.0, 58.0, 62.0], labels), _templates(means, labels))
    assert sim.correlation == pytest.approx(1.0) and sim.probability < 0.01
    for method, verdict in [
        (ScoringMethod.CORRELATION, Verdict.LIVE),
        (ScoringMethod.PROBABILITY, Verdict.REPLAY),
    ]:
        decision = decide(sim, 0.5, method)
        assert (decision.verdict, decision.method) == (verdict, method)
        assert decision.to_json_dict()["method"] == method.value


def test_scores_deterministic():
    means = [50.0, 55.0, 48.0, 52.0]
    delays = [51.0, 54.5, 49.0, 52.2]
    a = score_dynamic(_dynamic(delays, LAB4), _templates(means, LAB4))
    b = score_dynamic(_dynamic(delays, LAB4), _templates(means, LAB4))
    assert a == b


@settings(max_examples=40, deadline=None)
@given(
    scale=st.floats(min_value=0.01, max_value=50.0),
    shift=st.floats(min_value=-100.0, max_value=100.0),
)
def test_correlation_affine_invariance(scale, shift):
    means = [50.0, 55.0, 48.0, 52.0, -30.0]
    delays = [52.0, 53.0, 50.0, 51.0, -27.0]
    base = score_dynamic(_dynamic(delays, LAB5), _templates(means, LAB5)).correlation
    mapped = score_dynamic(
        _dynamic([scale * d + shift for d in delays], LAB5),
        _templates([scale * m + shift for m in means], LAB5),
    ).correlation
    assert mapped == pytest.approx(base, abs=1e-9)
