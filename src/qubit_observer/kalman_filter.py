"""Minimum-variance unbiased estimation for linear models with homodyne output.

Implements the general continuous-time filter for

    dx = A(t) x dt + B(t) dw,      dz = D (C(t) x dt + dw),

where the same noise vector enters state and measurement.  The optimal gain

    G(t) = (Sigma*(t) C^T D^T + B D^T) (D D^T)^{-1}

and the covariance Riccati equation account for that process/measurement
noise correlation through the B D^T terms; unbiasedness fixes the filter
drift to A - G D C.  The filter is the optimal *linear* unbiased estimator
for any noise and initial-condition distributions with matching first and
second moments, Gaussian or not, which is exactly the regime of the
two-point-distributed plant variable.

Riccati integration is fixed-step classical RK4 with symmetrization after
every step; positive semidefiniteness is monitored by the tests rather than
projected.  Record-driven filter updates are Euler-Maruyama-consistent since
dz is an increment stream.
"""

from dataclasses import dataclass

import numpy as np

from .export import write_csv
from .model_builder import _COND_LIMIT, ObserverSpec, build_augmented
from .spin_algebra import PlantSpec, _frozen

__all__ = [
    "LinearModel",
    "RiccatiSolution",
    "unbiased_drift",
    "kalman_gain",
    "riccati_rhs",
    "solve_riccati",
    "run_filter_ensemble",
    "error_covariance_ode",
    "gain_interpolator",
    "specialize_plant_observer",
    "write_riccati_csv",
]


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _as_coeff(value, name: str):
    """Normalize a constant matrix or callable t -> matrix to a callable."""
    if callable(value):
        return value
    arr = np.asarray(value, dtype=float)

    def const(_t: float, _arr=arr) -> np.ndarray:
        return _arr

    const.__name__ = f"const_{name}"
    return const


@dataclass(frozen=True)
class LinearModel:
    """Coefficients and initial moments of a linear model with homodyne rows.

    A, B, C may be constant arrays or callables of time; D is the constant
    (m/2) x m homodyne selection with D D^T invertible.  m must be even.
    """

    A: object
    B: object
    C: object
    D: np.ndarray
    x0_mean: np.ndarray
    sigma0: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.D, dtype=float)
        x0 = np.asarray(self.x0_mean, dtype=float)
        s0 = np.asarray(self.sigma0, dtype=float)
        if d.ndim != 2:
            raise ValueError("D must be a matrix")
        p, m = d.shape
        if m != 2 * p:
            raise ValueError("D must be (m/2) x m with m even")
        if np.linalg.cond(d @ d.T) > _COND_LIMIT:
            raise ValueError("D D^T is singular or ill-conditioned")
        if x0.ndim != 1:
            raise ValueError("x0_mean must be a vector")
        n = x0.size
        if s0.shape != (n, n) or not np.allclose(s0, s0.T, atol=1e-10):
            raise ValueError("sigma0 must be n x n symmetric")
        if np.linalg.eigvalsh(_sym(s0)).min() < -1e-10:
            raise ValueError("sigma0 must be positive semidefinite")
        object.__setattr__(self, "A", _as_coeff(self.A, "A"))
        object.__setattr__(self, "B", _as_coeff(self.B, "B"))
        object.__setattr__(self, "C", _as_coeff(self.C, "C"))
        object.__setattr__(self, "D", _frozen(d))
        object.__setattr__(self, "x0_mean", _frozen(x0))
        object.__setattr__(self, "sigma0", _frozen(_sym(s0)))
        a0 = np.asarray(self.A(0.0), dtype=float)
        b0 = np.asarray(self.B(0.0), dtype=float)
        c0 = np.asarray(self.C(0.0), dtype=float)
        if a0.shape != (n, n) or b0.shape != (n, m) or c0.shape != (m, n):
            raise ValueError(
                f"coefficient shapes must be A {n}x{n}, B {n}x{m}, C {m}x{n}; "
                f"got {a0.shape}, {b0.shape}, {c0.shape}"
            )

    @property
    def n(self) -> int:
        return self.x0_mean.size

    @property
    def m(self) -> int:
        return self.D.shape[1]

    def coeffs_at(self, t: float) -> tuple:
        return (
            np.asarray(self.A(t), dtype=float),
            np.asarray(self.B(t), dtype=float),
            np.asarray(self.C(t), dtype=float),
        )


@dataclass(frozen=True)
class RiccatiSolution:
    """Optimal error covariance and gain evaluated on a time grid."""

    times: np.ndarray
    sigma_star: np.ndarray
    gains: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", _frozen(np.asarray(self.times, dtype=float)))
        object.__setattr__(self, "sigma_star", _frozen(np.asarray(self.sigma_star, dtype=float)))
        object.__setattr__(self, "gains", _frozen(np.asarray(self.gains, dtype=float)))


def _ddt_inv(d: np.ndarray) -> np.ndarray:
    s = d @ d.T
    if np.linalg.cond(s) > _COND_LIMIT:
        raise ValueError("D D^T is singular or ill-conditioned")
    return np.linalg.inv(s)


def unbiased_drift(a, g, d, c) -> np.ndarray:
    """Filter drift A - G D C forced by the unbiasedness requirement."""
    a = np.asarray(a, dtype=float)
    g = np.asarray(g, dtype=float)
    d = np.asarray(d, dtype=float)
    c = np.asarray(c, dtype=float)
    if a.shape[0] != a.shape[1] or g.shape[0] != a.shape[0] or d.shape[1] != c.shape[0]:
        raise ValueError("dimension mismatch in A - G D C")
    return a - g @ (d @ c)


def kalman_gain(sigma, b, c, d) -> np.ndarray:
    """Optimal gain (Sigma C^T D^T + B D^T)(D D^T)^{-1}, Sigma symmetrized first."""
    sigma = _sym(np.asarray(sigma, dtype=float))
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)
    return (sigma @ c.T @ d.T + b @ d.T) @ _ddt_inv(d)


def riccati_rhs(sigma, a, b, c, d) -> np.ndarray:
    """Four-term covariance derivative of the optimal filter, symmetrized."""
    sigma = _sym(np.asarray(sigma, dtype=float))
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)
    s_inv = _ddt_inv(d)
    bdt = b @ d.T
    dc = d @ c
    drift = a - bdt @ s_inv @ dc
    rhs = (
        drift @ sigma
        + sigma @ drift.T
        - sigma @ c.T @ d.T @ s_inv @ dc @ sigma
        + b @ b.T
        - bdt @ s_inv @ (d @ b.T)
    )
    return _sym(rhs)


def _lyapunov_rhs(sigma, a, b, c, d, g) -> np.ndarray:
    drift = a - g @ (d @ c)
    residual_b = b - g @ d
    rhs = drift @ sigma + sigma @ drift.T + residual_b @ residual_b.T
    return _sym(rhs)


def _check_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly increasing with >= 2 points")
    return grid


def solve_riccati(model: LinearModel, grid) -> RiccatiSolution:
    """Integrate the covariance Riccati equation with RK4 on the given grid.

    Stores the symmetrized covariance and the optimal gain at every node.
    Aborts with a step diagnostic if the iteration produces non-finite values.
    """
    grid = _check_grid(grid)
    n = model.n
    d = model.D
    sigma = model.sigma0.copy()
    n_t = grid.size
    sig_out = np.empty((n_t, n, n))
    gain_out = np.empty((n_t, n, d.shape[0]))
    a0, b0, c0 = model.coeffs_at(grid[0])
    sig_out[0] = sigma
    gain_out[0] = kalman_gain(sigma, b0, c0, d)
    for k in range(n_t - 1):
        t, h = grid[k], grid[k + 1] - grid[k]
        a1, b1, c1 = model.coeffs_at(t)
        a2, b2, c2 = model.coeffs_at(t + 0.5 * h)
        a3, b3, c3 = model.coeffs_at(t + h)
        k1 = riccati_rhs(sigma, a1, b1, c1, d)
        k2 = riccati_rhs(sigma + 0.5 * h * k1, a2, b2, c2, d)
        k3 = riccati_rhs(sigma + 0.5 * h * k2, a2, b2, c2, d)
        k4 = riccati_rhs(sigma + h * k3, a3, b3, c3, d)
        sigma = _sym(sigma + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        if not np.isfinite(sigma).all():
            raise RuntimeError(f"Riccati integration diverged at step {k} (t = {t:.6g})")
        sig_out[k + 1] = sigma
        gain_out[k + 1] = kalman_gain(sigma, b3, c3, d)
    return RiccatiSolution(times=grid, sigma_star=sig_out, gains=gain_out)


def run_filter_ensemble(model: LinearModel, riccati: RiccatiSolution,
                        times, dz) -> np.ndarray:
    """Propagate the unbiased estimate along many records sharing one grid.

    ``times`` must be the Riccati grid; ``dz`` holds one record per row,
    (n_paths, n_steps) for a scalar record or (n_paths, n_steps, p), with
    ``dz[:, k]`` the increment over the step starting at ``times[k]``.
    x_hat(t_0) is the model's initial mean exactly; each step applies the
    drift A - G D C and injects G dz with the gain stored at the step's left
    node.  Returns the estimates as an (n_paths, n_times, n) array.
    """
    times = np.asarray(times, dtype=float)
    if times.shape != riccati.times.shape or np.max(np.abs(times - riccati.times)) > 1e-12:
        raise ValueError("run_filter_ensemble: time grids do not match")
    dz = np.asarray(dz, dtype=float)
    if dz.ndim == 2:
        dz = dz[:, :, None]
    p = model.D.shape[0]
    if dz.ndim != 3 or dz.shape[0] < 1 or dz.shape[1:] != (times.size - 1, p):
        raise ValueError(f"dz must hold, for each of n_paths >= 1 records, one "
                         f"{p}-vector per grid step; got shape {dz.shape}")
    n_paths = dz.shape[0]
    n_steps = times.size - 1
    n = model.n
    eye = np.eye(n)
    x = np.broadcast_to(model.x0_mean, (n_paths, n)).copy()
    out = np.empty((n_paths, times.size, n))
    out[:, 0, :] = x
    for k in range(n_steps):
        h = times[k + 1] - times[k]
        a, _, c = model.coeffs_at(times[k])
        g = riccati.gains[k]
        step_map = eye + h * unbiased_drift(a, g, model.D, c)
        x = x @ step_map.T + dz[:, k, :] @ g.T
        out[:, k + 1, :] = x
    return out


def error_covariance_ode(model: LinearModel, gain, grid) -> tuple:
    """Integrate the error covariance for a gain schedule; optimal if gain is None.

    For a callable gain(t) the Lyapunov-type equation with drift A - G D C and
    diffusion (B - G D)(B - G D)^T is integrated from sigma0.  With gain=None
    the Riccati equation is co-integrated and its gain is used at every RK4
    stage, which reproduces the optimal covariance to roundoff.  Returns
    (times, covariance trajectory).
    """
    grid = _check_grid(grid)
    d = model.D
    n_t = grid.size
    out = np.empty((n_t, model.n, model.n))
    sigma = model.sigma0.copy()
    out[0] = sigma

    if gain is None:
        sigma_star = model.sigma0.copy()

        def pair_rhs(t, sig, sig_star):
            a, b, c = model.coeffs_at(t)
            g = kalman_gain(sig_star, b, c, d)
            return _lyapunov_rhs(sig, a, b, c, d, g), riccati_rhs(sig_star, a, b, c, d)

        for k in range(n_t - 1):
            t, h = grid[k], grid[k + 1] - grid[k]
            l1, r1 = pair_rhs(t, sigma, sigma_star)
            l2, r2 = pair_rhs(t + 0.5 * h, sigma + 0.5 * h * l1, sigma_star + 0.5 * h * r1)
            l3, r3 = pair_rhs(t + 0.5 * h, sigma + 0.5 * h * l2, sigma_star + 0.5 * h * r2)
            l4, r4 = pair_rhs(t + h, sigma + h * l3, sigma_star + h * r3)
            sigma = _sym(sigma + (h / 6.0) * (l1 + 2.0 * l2 + 2.0 * l3 + l4))
            sigma_star = _sym(sigma_star + (h / 6.0) * (r1 + 2.0 * r2 + 2.0 * r3 + r4))
            if not np.isfinite(sigma).all():
                raise RuntimeError(f"covariance integration diverged at step {k}")
            out[k + 1] = sigma
        return grid, out

    for k in range(n_t - 1):
        t, h = grid[k], grid[k + 1] - grid[k]

        def rhs(tq, sig):
            a, b, c = model.coeffs_at(tq)
            return _lyapunov_rhs(sig, a, b, c, d, np.asarray(gain(tq), dtype=float))

        k1 = rhs(t, sigma)
        k2 = rhs(t + 0.5 * h, sigma + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, sigma + 0.5 * h * k2)
        k4 = rhs(t + h, sigma + h * k3)
        sigma = _sym(sigma + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        if not np.isfinite(sigma).all():
            raise RuntimeError(f"covariance integration diverged at step {k}")
        out[k + 1] = sigma
    return grid, out


def gain_interpolator(riccati: RiccatiSolution):
    """Entrywise-linear interpolant of the stored gain schedule, clamped at the ends."""
    times = riccati.times
    gains = riccati.gains

    def gain(t: float) -> np.ndarray:
        if t <= times[0]:
            return gains[0]
        if t >= times[-1]:
            return gains[-1]
        idx = int(np.searchsorted(times, t, side="right")) - 1
        t0, t1 = times[idx], times[idx + 1]
        w = (t - t0) / (t1 - t0)
        return (1.0 - w) * gains[idx] + w * gains[idx + 1]

    return gain


def specialize_plant_observer(plant: PlantSpec, observer: ObserverSpec) -> LinearModel:
    """LinearModel for the plant-observer system: reduced matrices, D = K, block moments."""
    reduced = build_augmented(plant, observer)
    return LinearModel(A=reduced.A, B=reduced.B, C=reduced.C, D=reduced.D,
                       x0_mean=reduced.x0_mean, sigma0=reduced.sigma0)


def write_riccati_csv(path, riccati: RiccatiSolution) -> None:
    """CSV of the covariance upper triangle and gain columns over time."""
    n = riccati.sigma_star.shape[1]
    p = riccati.gains.shape[2]
    header = ["t"]
    header += [f"sigma_{i + 1}{j + 1}" for i in range(n) for j in range(i, n)]
    header += [f"gain_{i + 1}_{l + 1}" for i in range(n) for l in range(p)]

    def rows():
        for k, t in enumerate(riccati.times):
            row = [t]
            row += [riccati.sigma_star[k, i, j] for i in range(n) for j in range(i, n)]
            row += [riccati.gains[k, i, l] for i in range(n) for l in range(p)]
            yield row

    write_csv(path, header, rows())


def write_estimates_csv(path, times, x_hat) -> None:
    """CSV of estimate trajectories; (n_t, n) for one run or (n_paths, n_t, n)."""
    times = np.asarray(times, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    if x_hat.ndim == 2:
        x_hat = x_hat[None, :, :]
    n = x_hat.shape[2]
    header = ["path_id", "t"] + [f"x_hat_{i + 1}" for i in range(n)]

    def rows():
        for pid in range(x_hat.shape[0]):
            for k, t in enumerate(times):
                yield [pid, t] + [x_hat[pid, k, i] for i in range(n)]

    write_csv(path, header, rows())

