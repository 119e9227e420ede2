"""Static Gaussian-process regression of the RSS field.

The composite kernel has three terms: an exponential spatial decay that
captures correlated shadowing, a rank-one term in the log-distance feature
for the uncertainty of the path-loss exponent, and a constant for the
uncertainty of the transmitted power:

    k(xi, xj) = sigma_k^2 exp(-||xi - xj|| / (2 l^2))
                + sigma_alpha^2 q(xi) q(xj) + sigma_p^2

with q(x) = 10 log10(||x - tx||), distances clamped at the D_MIN floor.
Kernel scales are learned by minimizing the negative log marginal likelihood
with analytic gradients; when the variance hyper-parameters were already
estimated empirically, sigma_alpha and sigma_p are frozen to their square
roots and only the spatial scales are fitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.linalg.blas import dsyrk
from scipy.optimize import minimize

from .empbayes import HyperEstimate
from .model import (
    Grid,
    NoiseModel,
    NumericalError,
    Position,
    clamped_distances,
    distance_matrix,
    log_distance_feature,
)

_VAR_LO, _VAR_HI = 1e-4, 1e4  # bounds on squared kernel scales
_SCALE_LO, _SCALE_HI = 1.0, 2000.0  # bounds on the decay scale 2 l^2, meters
_LOG2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class KernelParams:
    """Composite-kernel scales; the exponential term decays over 2 * ell^2 m."""

    sigma_k: float  # dB
    ell: float
    sigma_alpha_k: float  # unitless
    sigma_p_k: float  # dBm

    def __post_init__(self):
        if min(self.sigma_k, self.sigma_alpha_k, self.sigma_p_k) < 0 or self.ell <= 0:
            raise ValueError("kernel scales must be >= 0 and ell > 0")

    @property
    def decay_scale(self) -> float:
        """Meters over which the exponential term decays by 1/e."""
        return 2.0 * self.ell**2

    @classmethod
    def from_decay(cls, sigma_k, decay_scale, sigma_alpha_k=0.0, sigma_p_k=0.0):
        return cls(sigma_k, math.sqrt(decay_scale / 2.0), sigma_alpha_k, sigma_p_k)


@dataclass(frozen=True)
class FieldPosterior:
    """Gaussian posterior over the grid at one time step."""

    t: int
    mean: np.ndarray  # (M,) dBm
    cov: Optional[np.ndarray]  # (M, M) dB^2; None when only the mean was requested
    hyper: HyperEstimate
    kernel: KernelParams

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        mean.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        if self.cov is not None:
            cov = np.asarray(self.cov, dtype=float)
            if cov.shape != (mean.shape[0], mean.shape[0]):
                raise ValueError("covariance shape does not match mean")
            cov.setflags(write=False)
            object.__setattr__(self, "cov", cov)


def chol_with_jitter(mat: np.ndarray, what: str = "covariance") -> tuple:
    """Lower Cholesky factor, escalating diagonal jitter 1e-10 .. 1e-4*diag.

    ``mat`` is never modified: the retries factor one copy of it whose
    diagonal is reset to diag(mat) + jitter at each rung.
    """
    diag = np.diag(mat)
    diag_mean = float(np.mean(diag)) if mat.size else 0.0
    jitter = 0.0
    limit = max(1e-4 * diag_mean, 1e-10)
    bumped = mat
    while True:
        try:
            if jitter > 0.0:
                if bumped is mat:
                    bumped = np.array(mat, dtype=float)
                bumped[np.diag_indices_from(bumped)] = diag + jitter
            return cholesky(bumped, lower=True), jitter
        except (np.linalg.LinAlgError, ValueError):
            pass
        jitter = 1e-10 if jitter == 0.0 else jitter * 10.0
        if jitter > limit:
            raise NumericalError(
                f"{what} is not positive definite after jitter up to {limit:g}"
            )


def subtract_gram(c: np.ndarray, w: np.ndarray, alpha: float = 1.0) -> None:
    """c -= alpha * W^T W in place, for an exactly symmetric c.

    The product runs through scipy's BLAS (dsyrk), which also factors the
    result next: numpy and scipy each ship an OpenBLAS with its own thread
    pool, and a call into one right after a call into the other waits on the
    first pool's still-spinning threads. dsyrk fills one triangle; subtracting
    it and its transpose, then resetting the diagonal, keeps c exactly
    symmetric.
    """
    s = dsyrk(alpha, w, trans=1, lower=1)  # lower triangle of alpha W^T W, zeros above
    diag = np.diag(c) - np.diag(s)
    c -= s
    c -= s.T
    c[np.diag_indices_from(c)] = diag


def kernel_matrix(a_xy, b_xy, params: KernelParams, tx: Position) -> np.ndarray:
    """Composite kernel between all rows of a_xy and b_xy.

    Assembled in the distance buffer. The rank-one term is formed as
    outer(qa, qb) before scaling, so kernel_matrix(a, a) is exactly symmetric.
    """
    a = np.asarray(a_xy, dtype=float).reshape(-1, 2)
    b = np.asarray(b_xy, dtype=float).reshape(-1, 2)
    out = distance_matrix(a, b)
    qa = log_distance_feature(clamped_distances(a, tx))
    qb = log_distance_feature(clamped_distances(b, tx))
    out /= -params.decay_scale
    np.exp(out, out=out)
    out *= params.sigma_k**2
    rank_one = np.outer(qa, qb)
    rank_one *= params.sigma_alpha_k**2
    out += rank_one
    out += params.sigma_p_k**2
    return out


def kernel_eval(xi: Position, xj: Position, params: KernelParams, tx: Position) -> float:
    """Kernel value for a single pair of positions."""
    return float(kernel_matrix(xi.as_array(), xj.as_array(), params, tx)[0, 0])


def prior_mean(positions, hyper: HyperEstimate) -> np.ndarray:
    """Log-distance prior mean mu_p - mu_alpha * 10 log10(d_hat), dBm."""
    q = log_distance_feature(clamped_distances(positions, hyper.tx))
    return hyper.mu_p - hyper.mu_alpha * q


def noise_cov(d_hat, noise: NoiseModel) -> np.ndarray:
    """Diagonal measurement-noise covariance sigma_w^2 I + rho_u^2 diag(1/d^2)."""
    return np.diag(noise.variances(np.asarray(d_hat, dtype=float)))


def _nlml_parts(theta, dists, noise_diag, resid, qouter, frozen):
    """Negative log marginal likelihood and gradient in log-parameter space.

    theta is log([vk, s]) when the rank-one/constant variances are frozen,
    log([vk, s, va, vp]) otherwise.
    """
    vk, s = math.exp(theta[0]), math.exp(theta[1])
    if frozen is None:
        va, vp = math.exp(theta[2]), math.exp(theta[3])
    else:
        va, vp = frozen
    n = resid.shape[0]
    expo = np.exp(-dists / s)
    c = vk * expo + va * qouter + vp
    c[np.diag_indices_from(c)] += noise_diag
    try:
        low = cholesky(c, lower=True)
    except np.linalg.LinAlgError:
        return 1e25, np.zeros(len(theta))
    beta = cho_solve((low, True), resid)
    logdet = 2.0 * float(np.sum(np.log(np.diag(low))))
    nlml = 0.5 * float(resid @ beta) + 0.5 * logdet + 0.5 * n * _LOG2PI

    cinv = cho_solve((low, True), np.eye(n))
    diff = cinv - np.outer(beta, beta)

    def trace_term(dc):
        return 0.5 * float(np.sum(diff * dc))

    grad = [trace_term(vk * expo), trace_term(vk * expo * (dists / s))]
    if frozen is None:
        grad.append(trace_term(va * qouter))
        # dC/d log vp is the constant matrix vp * J
        grad.append(0.5 * vp * float(np.sum(diff)))
    return nlml, np.array(grad)


def negative_log_marginal_likelihood(train, hyper, kernel: KernelParams, noise: NoiseModel) -> float:
    """NLML of the residuals under kernel + noise (for diagnostics and tests)."""
    xy, z = train
    xy = np.asarray(xy, dtype=float).reshape(-1, 2)
    z = np.asarray(z, dtype=float).reshape(-1)
    d_hat = clamped_distances(xy, hyper.tx)
    resid = z - prior_mean(xy, hyper)
    q = log_distance_feature(d_hat)
    theta = np.log([kernel.sigma_k**2, kernel.decay_scale])
    frozen = (kernel.sigma_alpha_k**2, kernel.sigma_p_k**2)
    val, _ = _nlml_parts(
        theta,
        distance_matrix(xy, xy),
        noise.variances(d_hat),
        resid,
        np.outer(q, q),
        frozen,
    )
    return val


def _starts(resid, dists, fit_vars: bool):
    vk0 = float(np.clip(np.var(resid), 1e-3, 9e3)) if resid.size > 1 else 1.0
    off = dists[np.triu_indices_from(dists, k=1)]
    s0 = float(np.clip(np.median(off) if off.size else 50.0, 2.0, 1900.0))
    if fit_vars:
        raw = [
            (vk0, s0, 1e-2, 1.0),
            (10.0, 50.0, 1e-3, 10.0),
            (1.0, 500.0, 2e-4, 1e-2),
            (vk0, 2.0, 1e-2, 0.1),
        ]
    else:
        raw = [(vk0, s0), (10.0, 50.0), (1.0, 500.0), (vk0, 2.0)]
    return [np.log(np.asarray(r)) for r in raw]


def fit_kernel(
    train,
    hyper: HyperEstimate,
    noise: NoiseModel,
    *,
    n_starts: int = 4,
    maxiter: int = 200,
) -> KernelParams:
    """Kernel scales minimizing the negative log marginal likelihood.

    Multi-start bounded L-BFGS-B in log-parameter space with analytic
    gradients; the result is the deterministic argmin over the starts (ties
    broken by start order). Requires var_p and var_alpha of ``hyper`` to be
    either both known (frozen in the kernel) or both delegated (fitted).
    """
    xy, z = train
    xy = np.asarray(xy, dtype=float).reshape(-1, 2)
    z = np.asarray(z, dtype=float).reshape(-1)
    if xy.shape[0] < 3:
        raise ValueError("need at least 3 sensors to fit the kernel")
    if (hyper.var_p is None) != (hyper.var_alpha is None):
        raise ValueError("var_p and var_alpha must be both known or both delegated")
    fit_vars = hyper.var_p is None
    frozen = None if fit_vars else (hyper.var_alpha, hyper.var_p)

    d_hat = clamped_distances(xy, hyper.tx)
    resid = z - prior_mean(xy, hyper)
    q = log_distance_feature(d_hat)
    dists = distance_matrix(xy, xy)
    noise_diag = noise.variances(d_hat)
    qouter = np.outer(q, q)

    lo, hi = math.log(_VAR_LO), math.log(_VAR_HI)
    slo, shi = math.log(_SCALE_LO), math.log(_SCALE_HI)
    bounds = [(lo, hi), (slo, shi)] + ([(lo, hi), (lo, hi)] if fit_vars else [])

    best = None
    for idx, start in enumerate(_starts(resid, dists, fit_vars)[: max(n_starts, 1)]):
        res = minimize(
            _nlml_parts,
            np.clip(start, [b[0] for b in bounds], [b[1] for b in bounds]),
            args=(dists, noise_diag, resid, qouter, frozen),
            method="L-BFGS-B",
            jac=True,
            bounds=bounds,
            options={"maxiter": maxiter},
        )
        key = (float(res.fun), idx)
        if best is None or key < best[0]:
            best = (key, res.x)
    theta = best[1]
    vk, s = math.exp(theta[0]), math.exp(theta[1])
    if fit_vars:
        va, vp = math.exp(theta[2]), math.exp(theta[3])
    else:
        va, vp = frozen
    return KernelParams(
        sigma_k=math.sqrt(vk),
        ell=math.sqrt(s / 2.0),
        sigma_alpha_k=math.sqrt(va),
        sigma_p_k=math.sqrt(vp),
    )


def posterior(
    train,
    grid: Grid,
    hyper: HyperEstimate,
    kernel: KernelParams,
    noise: NoiseModel,
    *,
    t: int = 0,
    compute_cov: bool = True,
) -> FieldPosterior:
    """Posterior field at the grid nodes given one snapshot of reports.

    With L the lower Cholesky factor of K_X + S (never an explicit inverse):
    mean = m_g + K_gX (K_X + S)^-1 (z - m_X) through two triangular solves,
    and cov = K_g - W^T W with W = L^-1 K_Xg, which is exactly symmetric.
    With no training data the prior is returned. The returned covariance is
    verified positive definite (after the jitter ladder).
    """
    xy, z = train
    xy = np.asarray(xy, dtype=float).reshape(-1, 2)
    z = np.asarray(z, dtype=float).reshape(-1)
    m_grid = prior_mean(grid.xy, hyper)

    if xy.shape[0] == 0:
        cov = None
        if compute_cov:
            cov = kernel_matrix(grid.xy, grid.xy, kernel, hyper.tx)
            chol_with_jitter(cov, "grid prior covariance")
        return FieldPosterior(t=t, mean=m_grid, cov=cov, hyper=hyper, kernel=kernel)

    d_hat = clamped_distances(xy, hyper.tx)
    c = kernel_matrix(xy, xy, kernel, hyper.tx)
    c[np.diag_indices_from(c)] += noise.variances(d_hat)
    low, _ = chol_with_jitter(c, "training covariance")

    resid = z - prior_mean(xy, hyper)
    beta = cho_solve((low, True), resid)
    k_gx = kernel_matrix(grid.xy, xy, kernel, hyper.tx)
    mean = m_grid + k_gx @ beta

    cov = None
    if compute_cov:
        w = solve_triangular(low, k_gx.T, lower=True, overwrite_b=True)  # reuses k_gx
        cov = kernel_matrix(grid.xy, grid.xy, kernel, hyper.tx)
        subtract_gram(cov, w)
        chol_with_jitter(cov, "grid posterior covariance")
    return FieldPosterior(t=t, mean=mean, cov=cov, hyper=hyper, kernel=kernel)
