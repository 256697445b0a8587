"""Entropy scores, direction matrices, and ensemble aggregation."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cogecon.data_value import (
    InfoEnsemble,
    SourceDist,
    aggregate_data_value,
    data_value_index,
    differential_entropy,
    gaussian_entropy,
    information_value,
    value_weight,
)
from references import DirectionVector, direction_value_matrix

GAUSS_UNIT_ENTROPY = 0.5 * math.log(2.0 * math.pi * math.e)


def test_gaussian_entropy_closed_form():
    assert gaussian_entropy(1.0) == pytest.approx(GAUSS_UNIT_ENTROPY, rel=1e-15)
    assert gaussian_entropy(4.0) == pytest.approx(GAUSS_UNIT_ENTROPY + math.log(2.0),
                                                  rel=1e-14)


def test_gaussian_entropy_quadrature_cross_check():
    x = np.linspace(-12.0, 12.0, 40_001)
    p = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    h = np.trapezoid(-p * np.log(p), x)
    assert h == pytest.approx(GAUSS_UNIT_ENTROPY, abs=1e-6)
    assert differential_entropy(SourceDist.gaussian(1.0)) == pytest.approx(h, abs=1e-6)


def test_uniform_entropy_and_floor():
    assert differential_entropy(SourceDist.uniform(2.0)) == pytest.approx(
        math.log(2.0), rel=1e-15)
    # widths below one have negative raw entropy; scores are floored at zero
    assert differential_entropy(SourceDist.uniform(0.5)) == 0.0


def test_information_value_endpoints_and_clamp():
    cap = GAUSS_UNIT_ENTROPY
    assert information_value(0.0, cap) == 1.0
    assert information_value(cap, cap) == -1.0
    assert information_value(0.5 * cap, cap) == pytest.approx(0.0, abs=1e-15)
    with pytest.warns(RuntimeWarning):
        v = information_value(2.0 * cap, cap)
    assert v == -1.0


def test_value_weight_maps_to_unit_interval():
    assert value_weight(-1.0) == 0.0
    assert value_weight(1.0) == 1.0
    assert value_weight(0.0) == 0.5


unit_triples = st.tuples(
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
).filter(lambda t: 1e-6 < math.hypot(*t))


@given(raw=unit_triples, magnitude=st.floats(min_value=0.1, max_value=10.0))
def test_direction_matrix_eigenvalues(raw, magnitude):
    norm = math.hypot(*raw)
    d = DirectionVector(a=raw[0] / norm, b=raw[1] / norm, c=raw[2] / norm)
    m = direction_value_matrix(d, magnitude)
    assert np.allclose(m, m.conj().T)
    eig = np.sort(np.linalg.eigvalsh(m))
    assert eig[0] == pytest.approx(-magnitude, abs=1e-12 * max(1.0, magnitude))
    assert eig[1] == pytest.approx(magnitude, abs=1e-12 * max(1.0, magnitude))


def test_direction_vector_must_be_unit():
    with pytest.raises(ValueError):
        DirectionVector(a=1.0, b=1.0, c=0.0)


def test_single_source_aggregate_is_its_weight():
    e = InfoEnsemble(sources=(SourceDist.uniform(2.0),), sigma_max=GAUSS_UNIT_ENTROPY,
                     j_coupling=0.0, synergy={}, antagonism={})
    v = information_value(math.log(2.0), GAUSS_UNIT_ENTROPY)
    assert aggregate_data_value(e) == pytest.approx(value_weight(v), rel=1e-14)


def test_synergy_raises_and_antagonism_lowers():
    sources = (SourceDist.uniform(2.0), SourceDist.gaussian(0.5))
    base = aggregate_data_value(InfoEnsemble(sources=sources, sigma_max=2.0,
                                             j_coupling=1.0, synergy={}, antagonism={}))
    up = aggregate_data_value(InfoEnsemble(sources=sources, sigma_max=2.0, j_coupling=1.0,
                                           synergy={(0, 1): 0.7}, antagonism={}))
    down = aggregate_data_value(InfoEnsemble(sources=sources, sigma_max=2.0, j_coupling=1.0,
                                             synergy={}, antagonism={(0, 1): 0.7}))
    assert up > base > down
    assert up - base == pytest.approx(base - down, rel=1e-12)


def test_coupling_scale_is_linear():
    sources = (SourceDist.uniform(2.0), SourceDist.gaussian(0.5))
    lift = [aggregate_data_value(InfoEnsemble(sources=sources, sigma_max=2.0,
                                              j_coupling=j, synergy={(0, 1): 0.5},
                                              antagonism={}))
            for j in (0.0, 1.0, 2.0)]
    assert lift[2] - lift[1] == pytest.approx(lift[1] - lift[0], rel=1e-12)


def test_ensemble_validation():
    with pytest.raises(ValueError):
        InfoEnsemble(sources=(), sigma_max=1.0, j_coupling=0.0, synergy={}, antagonism={})
    with pytest.raises(ValueError):
        InfoEnsemble(sources=(SourceDist.uniform(1.0),), sigma_max=0.0, j_coupling=0.0,
                     synergy={}, antagonism={})
    with pytest.raises(ValueError):
        InfoEnsemble(sources=(SourceDist.uniform(1.0), SourceDist.uniform(2.0)),
                     sigma_max=1.0, j_coupling=0.0, synergy={(1, 0): 0.5}, antagonism={})


def test_index_fixed_points():
    assert data_value_index([0.0]) == 0.5
    assert data_value_index([1.0]) == pytest.approx(0.7310585786300049, abs=1e-15)
    with pytest.raises(ValueError):
        data_value_index([])


# beyond |total| ~ 37 the logistic saturates to exactly 0.0/1.0 in float64
@given(total=st.floats(min_value=-36.0, max_value=36.0))
def test_index_in_open_unit_interval_and_symmetric(total):
    idx = data_value_index([total])
    assert 0.0 < idx < 1.0
    assert idx + data_value_index([-total]) == pytest.approx(1.0, abs=1e-12)


def test_index_saturates_without_overflow():
    assert data_value_index([700.0]) == 1.0
    low = data_value_index([-700.0])
    assert 0.0 < low < 1e-300
