"""Resolvent-style matrix transform and the block exchange matrix."""

import numpy as np
import pytest

from glevy import check_symmetric, gamma_transform, j_matrix
from glevy.errors import GLevyError, MatrixError


def random_symmetric(rng, n, hi):
    # eigenvalues kept strictly below 1/gamma so the transform exists
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = rng.uniform(-2.0, hi, size=n)
    return q @ np.diag(eigs) @ q.T


def test_check_symmetric_accepts_and_symmetrizes():
    a = np.array([[1.0, 2.0], [2.0 + 1e-14, 3.0]])
    out = check_symmetric(a)
    assert np.allclose(out, out.T, atol=0.0)


def test_check_symmetric_rejects():
    # a difference that overflows (1e308 - -1e308) raised numpy's RuntimeWarning
    for asym in ([[1.0, 2.0], [0.0, 3.0]], [[0.0, 1e308], [-1e308, 0.0]]):
        with pytest.raises(MatrixError) as e:
            check_symmetric(np.array(asym))
        assert e.value.code == "ASYMMETRIC"
    with pytest.raises(GLevyError) as e:
        check_symmetric(np.ones((2, 3)))
    assert e.value.code == "BAD_SHAPE"
    with pytest.raises(GLevyError) as e:
        check_symmetric(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    assert e.value.code == "NON_FINITE"


@pytest.mark.parametrize(
    "call", [check_symmetric, lambda x: gamma_transform(x, 0.1)], ids=["check", "gamma"]
)
def test_empty_matrix_is_a_shape_error(call):
    # numpy's "zero-size array to reduction operation maximum" ValueError before
    with pytest.raises(GLevyError) as e:
        call(np.zeros((0, 0)))
    assert e.value.code == "BAD_SHAPE"
    assert e.value.message == "expected a nonempty square matrix, got (0, 0)"


def test_gamma_transform_examples():
    assert np.array_equal(gamma_transform(np.zeros((3, 3)), 0.5), np.zeros((3, 3)))
    out = gamma_transform(np.array([[1.0]]), 0.5)
    assert abs(out[0, 0] - 2.0) <= 1e-12


def test_gamma_transform_singular_and_range():
    with pytest.raises(MatrixError) as e:
        gamma_transform(np.array([[2.0]]), 0.5)
    assert e.value.code == "SINGULAR"
    for gamma in (0.0, -0.1):
        with pytest.raises(GLevyError) as e:
            gamma_transform(np.eye(2), gamma)
        assert e.value.code == "GAMMA_RANGE"


def test_gamma_transform_matches_direct_resolvent():
    rng = np.random.default_rng(2026)
    gamma = 0.2
    for _ in range(20):
        x = random_symmetric(rng, 4, 1.0 / gamma - 0.5)
        got = gamma_transform(x, gamma)
        want = np.linalg.solve(np.eye(4) - gamma * x, x.T).T
        assert np.max(np.abs(got - want)) <= 1e-9


def test_gamma_transform_is_operator_monotone():
    rng = np.random.default_rng(7)
    gamma = 0.1
    for _ in range(25):
        y = random_symmetric(rng, 3, 1.0 / gamma - 0.5)
        b = rng.standard_normal((3, 2))
        x = y - b @ b.T
        xg = gamma_transform(x, gamma)
        yg = gamma_transform(y, gamma)
        assert np.min(np.linalg.eigvalsh(yg - xg)) >= -1e-9
        assert np.min(np.linalg.eigvalsh(xg - x)) >= -1e-9
        assert np.min(np.linalg.eigvalsh(xg + np.eye(3) / gamma)) >= -1e-9


def test_j_matrix_small_cases():
    assert np.array_equal(j_matrix(1, 3), np.zeros((3, 3)))
    assert np.array_equal(j_matrix(2, 1), np.array([[1.0, -1.0], [-1.0, 1.0]]))
    with pytest.raises(GLevyError):
        j_matrix(0, 2)
    with pytest.raises(GLevyError):
        j_matrix(2, 0)


@pytest.mark.parametrize("n, d", [(2**40, 1), (1, 2**40), (2**70, 1)])
def test_j_matrix_beyond_any_array_is_a_shape_error(n, d):
    # these raised numpy's bare ValueError ("array is too big", "Maximum
    # allowed dimension exceeded")
    with pytest.raises(GLevyError) as e:
        j_matrix(n, d)
    message = f"a {n * d} x {n * d} matrix fits no array"
    assert (e.value.code, e.value.message) == ("BAD_SHAPE", message)


def test_j_matrix_is_scaled_idempotent():
    for n in (1, 2, 3):
        for d in (1, 2, 3):
            j = j_matrix(n, d)
            assert np.max(np.abs(j @ j - n * j)) <= 1e-12


def test_j_matrix_transform_closed_form():
    n, d, gamma = 2, 2, 0.3
    j = j_matrix(n, d)
    got = gamma_transform(j, gamma)
    want = j / (1.0 - n * gamma)
    assert np.max(np.abs(got - want)) <= 1e-10
