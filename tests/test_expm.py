"""spin_algebra.expm, the small dense exponential behind record_chain and
solve_riccati, against scipy and a high-precision reference, and the plans
it does not use held to the tests they fail."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm

import test_properties
import test_sde_engine
from qubit_observer import sde_engine
from qubit_observer.kalman_filter import _hamiltonian
from qubit_observer.model_builder import (BETA_NORM_RANGE, KAPPA_RANGE, OMEGA_O_MAX,
                                          ObserverSpec, build_augmented)
from qubit_observer.spin_algebra import _THETA, PlantSpec, expm

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)
MIXED = PlantSpec(r_p=np.zeros(3), c_p=[1.0, 0.0, 0.0], rho_p=np.eye(2) / 2)


def _generators(omega_o, kappa, radius, h, angle=0.3) -> dict:
    """The matrices whose exponentials the package forms at one observer and
    step h: the Riccati Hamiltonian times h (solve_riccati), record_chain's
    drift times h and its 17x17 Van Loan generator times h (exact_lti_step),
    built here from the model's blocks."""
    observer = ObserverSpec(omega_o=omega_o, kappa=kappa,
                            beta=radius * np.array([np.cos(angle), np.sin(angle)]))
    model = build_augmented(MIXED, observer)
    a = np.block([[model.A, np.zeros((3, 1))], [model.DC, np.zeros((1, 1))]])
    b = np.vstack([model.B, model.D])
    lyap = np.zeros((17, 17))
    lyap[:-1, :-1] = np.kron(a, np.eye(4)) + np.kron(np.eye(4), a)
    lyap[:-1, -1] = (b @ b.T).reshape(-1)
    return {"hamiltonian": _hamiltonian(model) * h, "chain": a * h, "van_loan": lyap * h}


def _gap(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def test_zero_matrix_gives_the_identity_exactly():
    for n in (1, 6, 17):
        np.testing.assert_array_equal(expm(np.zeros((n, n))), np.eye(n))


@SETTINGS
@given(st.floats(0.0, OMEGA_O_MAX), st.floats(*np.log10(KAPPA_RANGE)),
       st.floats(*np.log10(BETA_NORM_RANGE)), st.floats(-np.pi, np.pi),
       st.floats(-4.0, np.log10(0.05)), st.floats(-4.0, 1.0))
def test_expm_matches_scipy_over_the_envelope(omega_o, log_kappa, log_radius, angle,
                                              log_dt, log_h):
    """The Hamiltonian at filter steps up to 0.05 and record_chain's
    generators at steps up to 10, relative to the largest entry.  The gap is
    scipy's: over 1500 draws it read at most 1.4e-13 on the Hamiltonian and
    1.5e-11 on the Van Loan generator, where scipy is 1.6e-11 from a 60-digit
    exponential at the weak-coupling corner below and expm 5e-15."""
    observer = (omega_o, 10.0 ** log_kappa, 10.0 ** log_radius)
    mats = _generators(*observer, 10.0 ** log_h, angle)
    mats["hamiltonian"] = _generators(*observer, 10.0 ** log_dt, angle)["hamiltonian"]
    for name, bound in (("hamiltonian", 1e-12), ("chain", 1e-10), ("van_loan", 1e-10)):
        assert _gap(expm(mats[name]), scipy_expm(mats[name])) <= bound, name


# (omega_o, kappa, |beta|): the weak-coupling edge, where record_chain's
# record row D C reaches 6.4e9, and the envelope's extremes of kappa, omega_o
# and |beta|
CORNERS = {"weak-coupling": (92.7, 64.2, 1.45e-8), "kappa-1e-4": (1.0, 1e-4, 1.0),
           "kappa-100": (1.0, 100.0, 1.0), "omega_o-100": (100.0, 4.0, 1.0),
           "beta-1e3": (1.0, 4.0, 1e3)}


def _high_precision_gap(exp, corner, name, h) -> float:
    """exp's gap to a 60-digit Taylor exponential of one generator at a
    corner, relative to the largest entry."""
    mpmath = pytest.importorskip("mpmath")
    mat = _generators(*CORNERS[corner], h)[name]
    with mpmath.workdps(60):
        want = np.array(mpmath.expm(mpmath.matrix(mat.tolist()), method="taylor").tolist(),
                        dtype=float)
    return _gap(exp(mat), want)


@pytest.mark.parametrize("corner", CORNERS)
@pytest.mark.parametrize("name,h", [("hamiltonian", 0.045), ("chain", 0.045), ("chain", 10.1),
                                    ("van_loan", 0.045), ("van_loan", 10.1)])
def test_expm_at_the_envelope_corners(corner, name, h):
    """Within 1e-14 of the reference everywhere; the worst read 4.9e-15, on
    the Van Loan generator at the weak-coupling corner, where scipy's reads
    1.6e-11."""
    assert _high_precision_gap(expm, corner, name, h) <= 1e-14


def _taylor(a, s: int, m: int) -> np.ndarray:
    """The degree-m Taylor polynomial of a / 2^s by Horner, squared s times."""
    eye = np.eye(a.shape[0])
    out = eye
    for k in range(m, 0, -1):
        out = eye + (a / 2.0 ** s) @ out / k
    for _ in range(s):
        out = out @ out
    return out


def _squarings(alpha, theta) -> int:
    return math.ceil(math.log2(alpha / theta)) if alpha > theta else 0


def _alphas(a) -> dict:
    """expm's alpha_m for every degree of _THETA, from the norms of a's
    powers up to the ninth."""
    d, power = [np.abs(a).sum(axis=0).max()], a
    for k in range(2, 10):
        power = power @ a
        d.append(np.abs(power).sum(axis=0).max() ** (1.0 / k))
    return {m: min([d[0]] + [max(d[p - 1], d[p]) for p in range(2, 9) if p * (p - 1) <= m + 1])
            for m in _THETA}


def _norm_scaled(a):
    """Scaled by |a|_1 alone, fewest squarings then lowest degree."""
    norm = np.abs(a).sum(axis=0).max()
    return _taylor(a, *min((_squarings(norm, theta), m) for m, theta in _THETA.items()))


def _fewest_terms(a):
    """alpha from the norms of powers, the plan with the smallest m + s."""
    alphas = _alphas(a)
    return _taylor(a, *min(((_squarings(alphas[m], theta), m) for m, theta in _THETA.items()),
                           key=sum))


def _every_degree(a):
    """expm's plan over the whole table, degrees up to 55."""
    alphas = _alphas(a)
    return _taylor(a, *min((_squarings(alphas[m], theta), m) for m, theta in _THETA.items()))


@pytest.mark.parametrize("design,corner,name,h", [
    (_norm_scaled, "weak-coupling", "van_loan", 10.1),
    (_fewest_terms, "weak-coupling", "van_loan", 10.1),
    (_every_degree, "omega_o-100", "hamiltonian", 0.045),
], ids=["norm-scaled", "fewest-terms", "every-degree"])
def test_rejected_plans_miss_a_corner(design, corner, name, h):
    """Each plan expm does not use fails test_expm_at_the_envelope_corners:
    at the weak-coupling corner's Van Loan generator, whose record rows are
    nearly nilpotent, scaling by |a|_1 alone squares 60 times where the
    norms of its powers need 19 and reads 1.8e-3, and the smallest m + s,
    27 squarings of degree 11, reads 1.2e-12; degrees above 30 cancel terms
    near e^9.9 in Horner's sum and read 2.3e-13 on a fast rotation."""
    assert _high_precision_gap(design, corner, name, h) > 1e-14


def _composition_check():
    test_properties.test_record_chain_composes_exactly.hypothesis.inner_test(
        omega_o=0.0, log_kappa=0.0, log_radius=-3.0, angle=0.0, plant=MIXED,
        log_a=0.0, log_b=0.0)


@pytest.mark.parametrize("design,check", [
    (_norm_scaled, _composition_check),
    (_fewest_terms, test_sde_engine.test_record_increments_are_exact_over_a_long_horizon),
], ids=["norm-scaled-composition", "fewest-terms-long-horizon"])
def test_rejected_plans_fail_a_chain_test(monkeypatch, design, check):
    """Put in record_chain, the |a|_1-scaled plan misses the composition
    identity by 2.5e-13 in W at omega_o 0, kappa 1, |beta| 1e-3 and unit
    steps (expm: 4e-16), and the smallest-m + s plan misses dz by 1.1e-14
    over 1000 time units (expm: 2.6e-15)."""
    monkeypatch.setattr(sde_engine, "expm", design)
    with pytest.raises(AssertionError):
        check()
