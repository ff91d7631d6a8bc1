import numpy as np
import pytest

from qubit_observer.spin_algebra import (
    PAULI,
    PlantSpec,
    plant_generator,
    qubit_moments,
    theta,
)
from reference import EPSILON, commutator_oracle

ATOL = 1e-12
N_RANDOM = 1000


def pauli_product(i, j):
    """sigma_i sigma_j by the rule delta_ij I + i sum_k eps_ijk sigma_k, 1-based."""
    out = np.eye(2, dtype=complex) if i == j else np.zeros((2, 2), dtype=complex)
    for k in range(3):
        out += 1j * EPSILON[i - 1, j - 1, k] * PAULI[k]
    return out


def test_theta_unit_vector():
    expected = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
    skew = theta([1.0, 0.0, 0.0])
    np.testing.assert_array_equal(skew, expected)
    assert not skew.flags.writeable


def test_theta_zero_vector():
    np.testing.assert_array_equal(theta(np.zeros(3)), np.zeros((3, 3)))


def test_theta_annihilates_its_argument():
    beta = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(theta(beta) @ beta, np.zeros(3), atol=ATOL)


def test_theta_identities_random():
    """The four algebraic identities of the skew map, elementwise to 1e-12."""
    rng = np.random.default_rng(2024)
    eye = np.eye(3)
    for _ in range(N_RANDOM):
        b = rng.uniform(-1.0, 1.0, 3)
        g = rng.uniform(-1.0, 1.0, 3)
        tb, tg = theta(b), theta(g)
        np.testing.assert_array_equal(tb.T, -tb)
        np.testing.assert_allclose(tb @ g, -(tg @ b), atol=ATOL)
        np.testing.assert_allclose(tb @ b, np.zeros(3), atol=ATOL)
        np.testing.assert_allclose(tb @ tg, np.outer(g, b) - np.dot(b, g) * eye, atol=ATOL)
        np.testing.assert_allclose(
            theta(tb @ g), tb @ tg - tg @ tb, atol=ATOL,
            err_msg="composition identity failed",
        )


@pytest.mark.parametrize("i,j", [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)])
def test_pauli_product_matches_direct_multiplication(i, j):
    """The shipped Pauli matrices obey the Levi-Civita product rule."""
    sigmas = PAULI
    direct = sigmas[i - 1] @ sigmas[j - 1]
    np.testing.assert_allclose(pauli_product(i, j), direct, atol=ATOL)


def test_pauli_product_examples():
    np.testing.assert_allclose(pauli_product(1, 1), np.eye(2), atol=ATOL)
    np.testing.assert_allclose(pauli_product(1, 2), 1j * PAULI[2], atol=ATOL)
    np.testing.assert_allclose(pauli_product(2, 1), -1j * PAULI[2], atol=ATOL)


def test_pauli_commutation_relations():
    """sigma_i sigma_j - sigma_j sigma_i = 2i sum_k eps_ijk sigma_k as matrices."""
    sigmas = PAULI
    for i in range(3):
        for j in range(3):
            comm = sigmas[i] @ sigmas[j] - sigmas[j] @ sigmas[i]
            expected = sum(2j * EPSILON[i, j, k] * sigmas[k] for k in range(3))
            np.testing.assert_allclose(comm, expected, atol=ATOL)


def test_plant_generator_examples():
    np.testing.assert_allclose(
        plant_generator([0.0, 0.0, 1.0]),
        np.array([[0.0, -2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        atol=ATOL,
    )
    np.testing.assert_array_equal(plant_generator(np.zeros(3)), np.zeros((3, 3)))
    np.testing.assert_allclose(
        plant_generator([1.0, 0.0, 0.0]),
        np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -2.0], [0.0, 2.0, 0.0]]),
        atol=ATOL,
    )


def test_plant_generator_matches_commutator_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        r = rng.uniform(-2.0, 2.0, 3)
        np.testing.assert_allclose(plant_generator(r), commutator_oracle(r), atol=ATOL)


def test_commutator_oracle_examples():
    np.testing.assert_allclose(
        commutator_oracle([0.0, 0.0, 1.0]),
        np.array([[0.0, -2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        atol=ATOL,
    )
    np.testing.assert_allclose(commutator_oracle(np.zeros(3)), np.zeros((3, 3)), atol=ATOL)


def test_measured_combination_squares_to_norm():
    """(c . sigma)^2 = |c|^2 I, the identity behind two-point sampling."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        c = rng.uniform(-1.0, 1.0, 3)
        z_op = sum(ci * si for ci, si in zip(c, PAULI))
        np.testing.assert_allclose(z_op @ z_op, np.dot(c, c) * np.eye(2), atol=ATOL)


def _plant(c_p, rho):
    return PlantSpec(r_p=np.zeros(3), c_p=c_p, rho_p=rho)


def test_qubit_moments_maximally_mixed():
    mean, var = qubit_moments(_plant([1.0, 0.0, 0.0], np.eye(2) / 2))
    assert mean == pytest.approx(0.0, abs=ATOL)
    assert var == pytest.approx(1.0, abs=ATOL)


def test_qubit_moments_pure_eigenstate():
    mean, var = qubit_moments(_plant([0.0, 0.0, 1.0], np.diag([1.0, 0.0])))
    assert mean == pytest.approx(1.0, abs=ATOL)
    assert var == pytest.approx(0.0, abs=ATOL)


def test_qubit_moments_diagonal_sum():
    mean, var = qubit_moments(_plant([1.0, 1.0, 1.0], np.eye(2) / 2))
    assert mean == pytest.approx(0.0, abs=ATOL)
    assert var == pytest.approx(3.0, abs=ATOL)


def test_plant_spec_rejects_bad_inputs():
    good_rho = np.eye(2) / 2
    with pytest.raises(ValueError):
        _plant([0.0, 0.0, 0.0], good_rho)
    with pytest.raises(ValueError):
        _plant([1.0, 0.0, 0.0], np.array([[0.5, 0.3], [0.1, 0.5]]))
    with pytest.raises(ValueError):
        _plant([1.0, 0.0, 0.0], np.diag([0.8, 0.4]))
    with pytest.raises(ValueError):
        _plant([1.0, 0.0, 0.0], np.diag([1.2, -0.2]))
