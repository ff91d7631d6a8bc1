import numpy as np
import pytest

from qubit_observer.model_builder import (
    AugmentedModel,
    ObserverSpec,
    build_augmented,
    closed_loop_transfer,
    hurwitz_check,
    optimal_gain,
    output_bias,
    realizability_matrices,
    steady_state_mean,
    symplectic_j,
)
from qubit_observer.spin_algebra import PlantSpec

ATOL = 1e-12

PLANT = PlantSpec(r_p=np.zeros(3), c_p=[1.0, 0.0, 0.0], rho_p=np.eye(2) / 2)


def obs(omega_o=1.0, kappa=4.0, beta=(1.0, 0.0)):
    return ObserverSpec(omega_o=omega_o, kappa=kappa, beta=np.asarray(beta, dtype=float))


def test_symplectic_unit():
    j = symplectic_j()
    np.testing.assert_array_equal(j, [[0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_array_equal(j @ j, -np.eye(2))
    np.testing.assert_array_equal(j.T, -j)


def test_observer_spec_validation():
    with pytest.raises(ValueError):
        obs(kappa=0.0)
    with pytest.raises(ValueError):
        obs(kappa=-1.0)
    with pytest.raises(ValueError):
        obs(omega_o=-0.5)
    with pytest.raises(ValueError):
        obs(beta=(0.0, 0.0))
    # omega_o = 0 is explicitly allowed
    obs(omega_o=0.0)


def test_realizability_matrices_oscillator():
    """omega_o = 1, kappa = 4 reproduces the damped-rotation drift exactly."""
    a_o, b_o, c_o = realizability_matrices(np.eye(2), 2.0 * np.eye(2))
    np.testing.assert_allclose(a_o, [[-2.0, 2.0], [-2.0, -2.0]], atol=ATOL)
    np.testing.assert_allclose(b_o, -2.0 * np.eye(2), atol=ATOL)
    np.testing.assert_allclose(c_o, 2.0 * np.eye(2), atol=ATOL)


def test_realizability_matrices_closed_system():
    a_o, b_o, c_o = realizability_matrices(np.eye(2), np.zeros((2, 2)))
    np.testing.assert_allclose(a_o, 2.0 * symplectic_j(), atol=ATOL)
    np.testing.assert_array_equal(b_o, np.zeros((2, 2)))
    np.testing.assert_array_equal(c_o, np.zeros((2, 2)))


def test_realizability_matrices_pure_coupling():
    a_o, b_o, c_o = realizability_matrices(np.zeros((2, 2)), np.eye(2))
    np.testing.assert_allclose(a_o, -0.5 * np.eye(2), atol=ATOL)
    np.testing.assert_allclose(b_o, -np.eye(2), atol=ATOL)
    np.testing.assert_allclose(c_o, np.eye(2), atol=ATOL)


def test_realizability_matches_reduced_dynamics():
    """R_o = omega_o I, W_o = sqrt(kappa) I reproduces drift and diffusion."""
    rng = np.random.default_rng(3)
    for _ in range(20):
        kappa = rng.uniform(0.1, 10.0)
        omega_o = rng.uniform(0.0, 5.0)
        o = obs(omega_o=omega_o, kappa=kappa)
        a_o, b_o, c_o = realizability_matrices(
            omega_o * np.eye(2), np.sqrt(kappa) * np.eye(2))
        closed_form = -0.5 * kappa * np.eye(2) + 2.0 * omega_o * symplectic_j()
        np.testing.assert_allclose(a_o, closed_form, atol=ATOL)
        np.testing.assert_allclose(build_augmented(PLANT, o).A[1:, 1:], closed_form, atol=ATOL)
        np.testing.assert_allclose(b_o, -np.sqrt(kappa) * np.eye(2), atol=ATOL)
        np.testing.assert_allclose(c_o, np.sqrt(kappa) * np.eye(2), atol=ATOL)


def test_realizability_requires_symmetric_hamiltonian():
    with pytest.raises(ValueError):
        realizability_matrices(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))


def test_build_augmented_blocks():
    model = build_augmented(PLANT, obs())
    np.testing.assert_allclose(model.B, [[0.0, 0.0], [-2.0, 0.0], [0.0, -2.0]], atol=ATOL)
    np.testing.assert_allclose(model.C, [[0.0, 2.0, 0.0], [0.0, 0.0, 2.0]], atol=ATOL)
    np.testing.assert_allclose(model.A[1:, 1:], [[-2.0, 2.0], [-2.0, -2.0]], atol=ATOL)
    np.testing.assert_allclose(model.A[1:, 0], [0.0, -2.0], atol=ATOL)
    np.testing.assert_array_equal(model.A[0, :], np.zeros(3))
    np.testing.assert_allclose(model.x0_mean, [0.0, 0.0, 0.0], atol=ATOL)
    np.testing.assert_allclose(model.sigma0, np.diag([1.0, 1.0, 1.0]), atol=ATOL)


def test_augmented_model_rejects_broken_structure():
    model = build_augmented(PLANT, obs())
    bad_a = np.array(model.A)
    bad_a[0, 1] = 1.0
    with pytest.raises(ValueError):
        AugmentedModel(A=bad_a, B=model.B, C=model.C, D=model.D,
                       x0_mean=model.x0_mean, sigma0=model.sigma0)
    bad_s = np.array(model.sigma0)
    bad_s[0, 1] = bad_s[1, 0] = 0.5
    with pytest.raises(ValueError):
        AugmentedModel(A=model.A, B=model.B, C=model.C, D=model.D,
                       x0_mean=model.x0_mean, sigma0=bad_s)


def test_steady_state_mean_examples():
    np.testing.assert_allclose(
        steady_state_mean(obs()) @ [1.0, 0.0], [-0.5, -0.5], atol=ATOL)
    np.testing.assert_allclose(
        steady_state_mean(obs(omega_o=0.0)) @ [1.0, 0.0], [0.0, -1.0], atol=ATOL)
    # z_p = 0 gives the zero mean by linearity
    np.testing.assert_allclose(
        steady_state_mean(obs()) @ np.array([1.0, 0.0]) * 0.0, [0.0, 0.0], atol=ATOL)


def test_output_bias_examples():
    np.testing.assert_allclose(output_bias(obs(omega_o=0.0)), [0.0, -2.0], atol=ATOL)
    np.testing.assert_allclose(output_bias(obs()), [-1.0, -1.0], atol=ATOL)
    np.testing.assert_allclose(
        output_bias(obs(omega_o=0.0, kappa=1.0, beta=(0.0, 1.0))), [4.0, 0.0], atol=ATOL)


def test_output_bias_consistent_with_steady_state():
    """e = sqrt(kappa) * (settled mean per unit z_p)."""
    rng = np.random.default_rng(5)
    for _ in range(20):
        o = obs(omega_o=rng.uniform(0.0, 3.0), kappa=rng.uniform(0.1, 8.0),
                beta=rng.uniform(-1.0, 1.0, 2) + np.array([1.5, 0.0]))
        np.testing.assert_allclose(
            output_bias(o), np.sqrt(o.kappa) * steady_state_mean(o) @ o.beta, atol=1e-11)


def test_optimal_gain_examples():
    np.testing.assert_allclose(optimal_gain([0.0, -2.0]), [[0.0, -0.5]], atol=ATOL)
    np.testing.assert_allclose(optimal_gain([-1.0, -1.0]), [[-0.5, -0.5]], atol=ATOL)


def test_optimal_gain_constraint_and_norm():
    rng = np.random.default_rng(17)
    for _ in range(100):
        e = rng.uniform(-3.0, 3.0, 2)
        if not np.any(e):
            continue
        k = optimal_gain(e)
        assert float((k @ e)[0]) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(k) == pytest.approx(1.0 / np.linalg.norm(e), rel=1e-14)


def test_optimal_gain_rejects_zero():
    with pytest.raises(ValueError):
        optimal_gain([0.0, 0.0])


def test_gain_minimality_among_feasible_rows():
    """Any row with u e = 1 is at least as long as K (Cauchy-Schwarz)."""
    rng = np.random.default_rng(23)
    e = output_bias(obs())
    k = optimal_gain(e)[0]
    perp = np.array([-e[1], e[0]])
    for _ in range(1000):
        u = k + rng.uniform(-5.0, 5.0) * perp
        assert np.linalg.norm(u) >= np.linalg.norm(k) - 1e-12


def test_gain_norm_scaling_with_kappa():
    """At omega_o = 0, |K| = sqrt(kappa) / (4 |beta|), vanishing as kappa -> 0."""
    beta = np.array([0.6, -0.8])
    previous = None
    for kappa in (1e-4, 1e-2, 0.1, 1.0, 4.0, 16.0):
        o = obs(omega_o=0.0, kappa=kappa, beta=beta)
        norm_k = np.linalg.norm(optimal_gain(output_bias(o)))
        assert norm_k == pytest.approx(
            np.sqrt(kappa) / (4.0 * np.linalg.norm(beta)), abs=ATOL)
        if previous is not None:
            assert norm_k > previous
        previous = norm_k


def test_closed_loop_transfer_dc_and_limit():
    o = obs(omega_o=0.0)
    t0 = closed_loop_transfer(o, 0.0)
    np.testing.assert_allclose(t0, -np.eye(2), atol=ATOL)
    np.testing.assert_allclose(t0 @ t0.conj().T, np.eye(2), atol=ATOL)
    t_inf = closed_loop_transfer(o, 1e9)
    np.testing.assert_allclose(t_inf, np.eye(2), atol=1e-8)


def test_closed_loop_transfer_all_pass_grid():
    o = obs()
    for w in (0.0, 0.5, 1.0, 2.0, 10.0):
        t = closed_loop_transfer(o, 1j * w)
        np.testing.assert_allclose(t @ t.conj().T, np.eye(2), atol=1e-10)


def test_closed_loop_transfer_rejects_eigenvalue():
    o = obs()
    with pytest.raises(ValueError):
        closed_loop_transfer(o, -2.0 + 2.0j)
    with pytest.raises(ValueError, match=r"s = \(-2\+2j\)"):
        closed_loop_transfer(o, np.array([1j, -2.0 + 2.0j, 3j]))


def test_closed_loop_transfer_batches_frequencies():
    """An array of s gives the stack of the scalar results, bit for bit."""
    o = obs(omega_o=1.3, kappa=2.7)
    s = 1j * np.linspace(0.0, 50.0, 41).reshape(41, 1)
    stack = closed_loop_transfer(o, s)
    assert stack.shape == (41, 1, 2, 2)
    assert np.array_equal(stack, np.array([[closed_loop_transfer(o, x) for x in row]
                                           for row in s]))
    assert closed_loop_transfer(o, 0.5j).shape == (2, 2)


def test_hurwitz_check_examples():
    ok, eigs = hurwitz_check(obs())
    assert ok
    np.testing.assert_allclose(sorted(eigs, key=lambda z: z.imag),
                               [-2.0 - 2.0j, -2.0 + 2.0j], atol=ATOL)
    ok, eigs = hurwitz_check(obs(omega_o=0.0, kappa=0.01))
    assert ok
    np.testing.assert_allclose(eigs, [-0.005, -0.005], atol=ATOL)
    ok, eigs = hurwitz_check(obs(omega_o=0.0))
    assert ok
    np.testing.assert_allclose(eigs, [-2.0, -2.0], atol=ATOL)


def test_homodyne_row_is_d_block():
    model = build_augmented(PLANT, obs())
    np.testing.assert_allclose(model.D, [[-0.5, -0.5]], atol=ATOL)
    np.testing.assert_allclose((model.D @ output_bias(obs()))[0], 1.0, atol=1e-14)
