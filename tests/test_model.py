"""Model reduction: scaling to canonical form, regimes, speed classes."""
import math

import pytest
from hypothesis import given, settings, strategies as st

import kppwaves as kw
from kppwaves import (CanonicalModel, GeneralModel, Regime, SpeedClass,
                      classify_speed, critical_speed, model_from_json,
                      model_to_json, nondimensionalize)


def test_identity_scaling():
    cm, s = nondimensionalize(GeneralModel(kappa=1, alpha=1, beta=1, m=1, p=2, q=1))
    assert cm == CanonicalModel(m=1, p=2, q=1)
    assert (s.a, s.b, s.l) == (1.0, 1.0, 1.0)
    assert cm.regime is Regime.CASE_II


def test_diffusivity_only_scaling():
    # kappa = 4 stretches space by 2 and touches nothing else
    _, s = nondimensionalize(GeneralModel(kappa=4, alpha=1, beta=1, m=1, p=2, q=1))
    assert s.a == pytest.approx(2.0, abs=1e-15)
    assert s.b == pytest.approx(1.0, abs=1e-15)
    assert s.l == pytest.approx(1.0, abs=1e-15)


def test_sink_heavy_scaling():
    # beta/alpha = 4 with p - q = 2: l = 2, a = 2^(-1/2), b = 1/4
    cm, s = nondimensionalize(GeneralModel(kappa=1, alpha=1, beta=4, m=2, p=3, q=1))
    assert cm == CanonicalModel(m=2, p=3, q=1)
    assert s.l == pytest.approx(2.0, rel=1e-14)
    assert s.a == pytest.approx(2.0 ** -0.5, rel=1e-14)
    assert s.b == pytest.approx(0.25, rel=1e-14)


# the substitution u = l v(x/a, t/b) turns the general equation into the
# canonical one exactly when these three coefficients equal 1
def _scaling_defects(g, s):
    d1 = g.kappa * s.l ** (g.m - 1.0) * s.b / (s.a * s.a) - 1.0
    d2 = g.alpha * s.b * s.l ** (g.p - 1.0) - 1.0
    d3 = g.beta * s.b * s.l ** (g.q - 1.0) - 1.0
    return d1, d2, d3


pos = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(kappa=pos, alpha=pos, beta=pos,
       m=st.floats(min_value=0.2, max_value=4.0),
       q=st.floats(min_value=0.1, max_value=3.0),
       dp=st.floats(min_value=0.05, max_value=3.0))
def test_scaling_normalizes_all_coefficients(kappa, alpha, beta, m, q, dp):
    g = GeneralModel(kappa=kappa, alpha=alpha, beta=beta, m=m, p=q + dp, q=q)
    _, s = nondimensionalize(g)
    for d in _scaling_defects(g, s):
        assert abs(d) < 1e-9


def test_regime_split():
    assert CanonicalModel(m=2, p=2, q=1).regime is Regime.CASE_I
    assert CanonicalModel(m=1, p=2, q=1).regime is Regime.CASE_II   # m+q = 2 boundary
    assert CanonicalModel(m=0.5, p=2, q=0.5).regime is Regime.CASE_II


@pytest.mark.parametrize("mpq,want", [
    ((1, 2, 1), 2.0),
    ((2, 5, 1), 4.0),
    ((1, 1.25, 1), 1.0),
])
def test_critical_speed_values(mpq, want):
    m, p, q = mpq
    assert critical_speed(CanonicalModel(m=m, p=p, q=q)) == pytest.approx(want, rel=1e-15)


def test_classify_speed_trichotomy():
    cm = CanonicalModel(m=2, p=2, q=1)   # c* = 2
    assert classify_speed(cm, 1.0) is SpeedClass.NO_WAVE
    assert classify_speed(cm, 0.0) is SpeedClass.NO_WAVE
    assert classify_speed(cm, -1.0) is SpeedClass.OSCILLATORY
    assert classify_speed(cm, -2.0) is SpeedClass.MONOTONE    # boundary is monotone
    assert classify_speed(cm, -3.0) is SpeedClass.MONOTONE


@settings(max_examples=50, derandomize=True, deadline=None)
@given(q=st.floats(min_value=0.1, max_value=3.0),
       dp=st.floats(min_value=0.05, max_value=3.0),
       m=st.floats(min_value=0.2, max_value=4.0),
       u=st.floats(min_value=-3.0, max_value=3.0))
def test_classify_speed_threshold_is_sharp(q, dp, m, u):
    cm = CanonicalModel(m=m, p=q + dp, q=q)
    cs = critical_speed(cm)
    c = u * cs
    got = classify_speed(cm, c)
    if c >= 0.0:
        assert got is SpeedClass.NO_WAVE
    elif abs(c) >= cs:
        assert got is SpeedClass.MONOTONE
    else:
        assert got is SpeedClass.OSCILLATORY


def test_equal_exponents_rejected():
    with pytest.raises(kw.DegenerateScaleError):
        GeneralModel(kappa=1, alpha=1, beta=1, m=1, p=2, q=2)


def test_source_weaker_than_sink_rejected():
    with pytest.raises(kw.UnsupportedModelError) as ei:
        CanonicalModel(m=1, p=1, q=2)
    assert "p > q" in str(ei.value)


def test_nonpositive_parameters_rejected():
    with pytest.raises(kw.InvalidParameterError):
        GeneralModel(kappa=0, alpha=1, beta=1, m=1, p=2, q=1)
    with pytest.raises(kw.InvalidParameterError):
        GeneralModel(kappa=1, alpha=-1, beta=1, m=1, p=2, q=1)
    with pytest.raises(kw.InvalidParameterError):
        CanonicalModel(m=-1, p=2, q=1)


def test_json_round_trip_canonical():
    cm = CanonicalModel(m=2, p=2.5, q=1)
    assert model_from_json(model_to_json(cm)) == cm


def test_json_round_trip_general():
    g = GeneralModel(kappa=4, alpha=0.5, beta=2, m=1.5, p=3, q=1)
    assert model_from_json(model_to_json(g)) == g


def test_json_general_defaults():
    g = model_from_json({"kappa": 2.0, "m": 1, "p": 2, "q": 1})
    assert isinstance(g, GeneralModel)
    assert (g.alpha, g.beta) == (1.0, 1.0)


def test_json_plain_triple_is_canonical():
    cm = model_from_json({"m": 1, "p": 2, "q": 1})
    assert isinstance(cm, CanonicalModel)


def test_json_rejects_junk():
    with pytest.raises(kw.KppWavesError):
        model_from_json({"m": 1, "p": 2})
    with pytest.raises(kw.KppWavesError):
        model_from_json({"m": 1, "p": 2, "q": 1, "extra": 7})


def test_json_text_that_is_no_object_is_an_invalid_parameter():
    with pytest.raises(kw.InvalidParameterError, match="not JSON"):
        model_from_json("{")


@pytest.mark.parametrize("doc", ["3", "[[1, 2]]", '"m"', "null", 3, [["m", 1]]])
def test_json_document_that_is_no_object_is_an_invalid_parameter(doc):
    with pytest.raises(kw.InvalidParameterError, match="must be a JSON object"):
        model_from_json(doc)


def test_json_object_text_is_read():
    assert model_from_json('{"m": 1, "p": 2, "q": 1}') == CanonicalModel(m=1, p=2, q=1)
