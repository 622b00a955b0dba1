"""Non-negative l1-regularized least squares by cyclic coordinate descent.

Solves min ||t - X g||^2 + lambda1 * ||g||_1 subject to g >= 0, the
unscaled form (no 1/2 factor), so optimality conditions carry a factor 2.
``nn_lasso`` codes one instance with the package's one solver, the
batched Gram-form loop the tracker runs (``_kernels.cd_nn_lasso_gram``
is its one-problem call), on X'X, X't and t't; the objective and KKT
residual are then taken against X and t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import BadShape, NegativeTau, NonFiniteInput


@dataclass
class SolverParams:
    lambda1: float = 0.01
    max_iter: int = 500
    tol: float = 1e-8

    def __post_init__(self):
        if self.lambda1 < 0:
            raise ValueError("lambda1 must be >= 0")
        if self.tol <= 0:
            raise ValueError("tol must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class SparseCode:
    """Solution of one non-negative lasso instance."""

    gamma: np.ndarray
    objective: float
    iterations: int
    kkt_residual: float


def objective_value(X: np.ndarray, t: np.ndarray, lambda1: float, gamma: np.ndarray) -> float:
    """The objective at gamma; criterion 2 reads it, no CLI command does."""
    resid = t - X @ gamma
    return float(resid @ resid + lambda1 * np.sum(gamma))


def kkt_residual(X: np.ndarray, t: np.ndarray, lambda1: float, gamma: np.ndarray) -> float:
    """Max violation of the first-order conditions at a feasible gamma;
    criterion 2 checks the solver by it, no CLI command runs it.

    With g_k = -2 x_k.(t - X gamma) + lambda1, a coordinate contributes
    |min(g_k, 0)| when gamma_k = 0 and |g_k| otherwise.
    """
    X = np.asarray(X, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    if X.ndim != 2 or t.shape != (X.shape[0],) or gamma.shape != (X.shape[1],):
        raise BadShape(f"X {X.shape}, t {t.shape}, gamma {gamma.shape}")
    grad = -2.0 * (X.T @ (t - X @ gamma)) + lambda1
    at_zero = np.abs(np.minimum(grad, 0.0))
    active = np.abs(grad)
    per_coord = np.where(gamma > 0.0, active, at_zero)
    return float(per_coord.max()) if per_coord.size else 0.0


def nn_lasso(X: np.ndarray, t: np.ndarray, params: SolverParams | None = None) -> SparseCode:
    """Cyclic coordinate descent for the non-negative lasso: the public
    solver entry that criterion 2 checks; no CLI command runs it."""
    if params is None:
        params = SolverParams()
    X = np.ascontiguousarray(X, dtype=np.float64)
    t = np.ascontiguousarray(t, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise BadShape(f"X must be d x n with d,n >= 1, got {X.shape}")
    if t.shape != (X.shape[0],):
        raise BadShape(f"t has shape {t.shape}, expected ({X.shape[0]},)")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(t))):
        raise NonFiniteInput("X and t must be finite")
    gamma, _resid_sq, sweeps = _kernels.cd_nn_lasso_gram(
        X.T @ X, X.T @ t, float(t @ t), float(params.lambda1), float(params.tol), int(params.max_iter)
    )
    return SparseCode(
        gamma=gamma,
        objective=objective_value(X, t, params.lambda1, gamma),
        iterations=sweeps,
        kkt_residual=kkt_residual(X, t, params.lambda1, gamma),
    )


def soft_threshold(v: np.ndarray, tau: float) -> np.ndarray:
    """Elementwise sign(v) * max(|v| - tau, 0)."""
    if tau < 0:
        raise NegativeTau(f"tau={tau}")
    v = np.asarray(v, dtype=np.float64)
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)
