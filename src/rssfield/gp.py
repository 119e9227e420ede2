"""Static Gaussian-process regression of the RSS field.

The composite kernel has three terms: an exponential spatial decay that
captures correlated shadowing, a rank-one term in the log-distance feature
for the uncertainty of the path-loss exponent, and a constant for the
uncertainty of the transmitted power:

    k(xi, xj) = sigma_k^2 exp(-||xi - xj|| / (2 l^2))
                + sigma_alpha^2 q(xi) q(xj) + sigma_p^2

with q(x) = 10 log10(||x - tx||), distances clamped at the D_MIN floor.
The two spatial scales (sigma_k^2 and the decay scale) are learned by
minimizing the negative log marginal likelihood with analytic gradients;
sigma_alpha^2 and sigma_p^2 are frozen at the prior variances var_alpha and
var_p of the HyperEstimate (see ``empbayes.hyper_at``).

BLAS threading: numpy and scipy each ship their own OpenBLAS, each with its
own thread pool, and a call into one library right after a threaded call into
the other waits on the first pool's still-spinning threads. Every product on
the estimation path that is large enough for OpenBLAS to thread therefore goes
through scipy (``matvec``, ``subtract_gram``, ``scipy.linalg.blas.dgemm``), so
only scipy's pool runs between its LAPACK calls. The numpy products that
remain (vector . vector, 4 x 4 blocks and a few others) are listed with their
reasons in tests/test_blas_guard.py. scipy's BLAS wrappers copy any operand
that is not Fortran-ordered, so each call passes the F-ordered view of its
operand (the transpose of a C-ordered array) and sets the transpose flag.

Memory budget of the M x M path: a report holds one M x M array, the
covariance it returns, and every step works inside it. Every covariance here
is C-ordered and exactly symmetric, so its F-ordered view (mat.T) is the same
matrix and goes to BLAS and LAPACK without a copy.

- ``kernel_matrix`` assembles its output one block of rows of about 1 MB at a
  time (distances, exp, the rank-one term and the constant, each in place),
  so its only temporaries are one block.
- ``subtract_gram`` accumulates -alpha W^T W straight into one triangle of c
  with dsyrk (beta = 1, overwrite_c) and mirrors that triangle. ``posterior``
  builds K_g only on that triangle (``kernel_matrix(..., upper_only=True)``);
  the other comes zeroed from calloc and the mirror overwrites it.
- ``chol_with_jitter`` factors its matrix in place with potrf, through its
  F-ordered view. The PD check (``check_only=True``) then restores it from
  the other triangle and a saved diagonal; the N x N training factor that
  ``condition`` keeps is the lower triangle of the buffer it built, and only
  that triangle is read.
- Each of these LAPACK/BLAS calls is checked to have written into the
  caller's buffer: f2py silently copies an argument it cannot write into,
  which would lose the update instead of failing.
- Finiteness is scanned one block of rows at a time, also before each solve
  for W (``check_finite``), where scipy's own scan would allocate an N x M
  boolean array.
- The handoff slot: ``posterior`` with its covariance leaves its
  conditioning, the training factor L (N x N) and W = L^-1 K_Xg (N x M), in
  one private slot, keyed on an exact copy of its inputs (report positions,
  target nodes, kernel, covariance-side fix and noise variances), once the
  PD check has passed. ``condition_w`` (which ``bounds.hcrb_all`` calls)
  takes them when its inputs equal the key, so a report's bound conditions
  no second time. Taking the slot empties it, and so does every
  ``condition`` call: it holds at most one conditioning, and none beyond
  the next report.

README's performance notes keep the measured memory and times of this
path.

Kernel fit: ``fit_kernel`` builds one NLML objective per fit
(``_nlml_objective``) and hands it to every L-BFGS-B start. The objective
owns three N x N buffers and rebuilds C in one of them at each evaluation;
potrf, potrs and potri work in place on it, and the gradient traces are
ddots of potri's triangle with the other two buffers, so an evaluation makes
no N x N temporary beyond a boolean finiteness mask. Its LAPACK calls are
most of what an evaluation costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.blas import ddot, dgemv, dsyrk
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs
from scipy.optimize import minimize

from .empbayes import DegenerateFitError, HyperEstimate
from .model import (
    Grid,
    NoiseModel,
    NumericalError,
    Position,
    clamped_distances,
    distance_matrix,
    log_distance_feature,
)

_VAR_LO, _VAR_HI = 1e-4, 1e4  # bounds on sigma_k^2
_SCALE_LO, _SCALE_HI = 1.0, 2000.0  # bounds on the decay scale 2 l^2, meters
_LOG2PI = math.log(2.0 * math.pi)
_LBFGS_MAXITER = 200  # iterations per start; measured fits converge within 31
_BLOCK = 32  # rows or columns per block when mirroring a triangle in place
_BLOCK_BYTES = 1 << 20  # size of a block of rows when assembling or scanning a matrix

# posterior's last conditioning with its covariance: {key: (L, W)}, at most one
# entry (see the module docstring's handoff slot and ``condition_w``)
_handoff: dict = {}


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


def row_blocks(n: int, width: int):
    """Slices covering range(n) in blocks of about _BLOCK_BYTES of float64 rows
    of the given width.

    Each block is a whole multiple of _BLOCK rows, so a dgemv over a block
    groups its rows as a dgemv over all n rows does, and the last block takes
    any remainder shorter than one block instead of standing alone.
    """
    step = max(_BLOCK, _BLOCK_BYTES // (8 * max(width, 1)) // _BLOCK * _BLOCK)
    start = 0
    for stop in [*range(step, n - step + 1, step), n]:
        yield slice(start, stop)
        start = stop


def all_finite(mat: np.ndarray) -> bool:
    """np.isfinite(mat).all() over one block of rows at a time."""
    rows = mat.T if mat.flags.f_contiguous and not mat.flags.c_contiguous else mat
    return all(np.isfinite(rows[blk]).all() for blk in row_blocks(rows.shape[0], rows.shape[1]))


def check_finite(*mats: np.ndarray) -> None:
    """scipy's check_finite, one block of rows at a time: scipy's own scan
    allocates a boolean array as large as each input."""
    if not all(all_finite(m) for m in mats):
        raise ValueError("array must not contain infs or NaNs")


def check_in_place(out: np.ndarray, buf: np.ndarray, routine: str) -> None:
    """Raise unless the f2py wrapper returned buf's own memory."""
    if not np.may_share_memory(out, buf):
        raise RuntimeError(f"{routine} wrote into a copy of its argument, not the argument itself")


def _potrf(f: np.ndarray, clean: int = 0) -> int:
    """LAPACK potrf on the lower triangle of the F-ordered f, in place; info > 0
    means f is not positive definite. The strict upper triangle is not touched,
    unless clean zeroes it."""
    out, info = dpotrf(f, lower=1, clean=clean, overwrite_a=1)
    check_in_place(out, f, "potrf")
    if info < 0:
        raise ValueError(f"potrf rejected its argument {-info}")
    return info


def _mirror(g: np.ndarray, from_upper: bool) -> None:
    """Copy the strict upper triangle of the C-ordered square g onto its strict
    lower one (from_upper) or the other way round.

    Each block of rows is read along its rows and written into the block
    column of the other triangle, which is 3-4 times faster than the reverse.
    """
    m = g.shape[0]
    below = np.tri(_BLOCK, k=-1, dtype=bool)
    target = below if from_upper else below.T
    for i0 in range(0, m, _BLOCK):
        i1 = min(i0 + _BLOCK, m)
        blk = g[i0:i1, i0:i1]
        np.copyto(blk, blk.T, where=target[: i1 - i0, : i1 - i0])
        if from_upper:
            g[i1:, i0:i1] = g[i0:i1, i1:].T
        else:
            g[:i0, i0:i1] = g[i0:i1, :i0].T


def _restore(f: np.ndarray, diag: np.ndarray) -> None:
    """Undo _potrf on the F-ordered f: its lower triangle again from the strict
    upper one, which potrf leaves untouched, and the saved diagonal."""
    _mirror(f.T, from_upper=False)
    np.fill_diagonal(f, diag)


def _jitter_ladder(f: np.ndarray, diag: np.ndarray, what: str) -> float:
    """Factor the exactly symmetric, F-ordered f with diagonal diag in place,
    escalating diagonal jitter 1e-10 .. 1e-4*mean(diag) until potrf succeeds;
    returns the jitter.

    On success the lower triangle holds the factor and the strict upper one is
    f's own. Every failed rung restores f before the next one, so f is f
    again when NumericalError is raised.
    """
    # summed from scaled terms, so that it cannot overflow
    limit = max(float(np.sum(diag * (1e-4 / max(diag.size, 1)))), 1e-10)
    jitter = 0.0
    while _potrf(f):
        _restore(f, diag)
        jitter = 1e-10 if jitter == 0.0 else jitter * 10.0
        if jitter > limit:
            raise NumericalError(f"{what} is not positive definite after jitter up to {limit:g}")
        np.fill_diagonal(f, diag + jitter)
    return jitter


def chol_with_jitter(mat: np.ndarray, what: str = "covariance", *, check_only: bool = False) -> tuple:
    """(lower Cholesky factor, jitter), escalating diagonal jitter 1e-10 ..
    1e-4*diag until the factorization succeeds.

    ``mat`` must be exactly symmetric, as every covariance in this library is
    by construction, writeable and C- or F-contiguous. It is factored in
    place through its F-ordered view f (mat.T when C-ordered, the same
    matrix); each failed rung is undone from the other triangle and a saved
    diagonal. The factor returned is f: its lower triangle is bit-identical
    to scipy.linalg.cholesky of mat + jitter I, and its strict upper triangle
    is still mat's, so only readers of the lower triangle (potrs, trtrs) may
    take it.

    With check_only, mat is restored after the pass and comes back bit for
    bit, and (None, jitter) is returned. A mat with a non-finite entry raises
    NumericalError before any factorization.
    """
    f = mat.T if mat.flags.c_contiguous else mat
    if not (f.flags.f_contiguous and f.flags.writeable):
        raise ValueError("chol_with_jitter needs a writeable, C- or F-contiguous mat")
    if not all_finite(mat):
        raise NumericalError(f"{what} has non-finite entries")
    diag = f.diagonal().copy()
    jitter = _jitter_ladder(f, diag, what)
    if check_only:
        _restore(f, diag)
        return None, jitter
    return f, jitter


def matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x through scipy's dgemv, bit-identical to numpy's product.

    Keeps the product in scipy's BLAS thread pool (see the module docstring).
    The F-ordered operand goes in as is: a C-ordered a enters as a.T with the
    transpose flag, which is also the kernel numpy picks for it.
    """
    if a.flags.f_contiguous:
        return dgemv(1.0, a, x)
    return dgemv(1.0, a.T, x, trans=1)


def subtract_gram(c: np.ndarray, w: np.ndarray, alpha: float = 1.0) -> None:
    """c -= alpha * W^T W in place, for an exactly symmetric, C- or
    F-contiguous c.

    scipy's dsyrk accumulates -alpha W^T W straight into the lower triangle of
    c's F-ordered view (beta = 1, overwrite_c), with no M x M temporary; that
    triangle is then mirrored into the other one a block of rows at a time,
    so the result is exactly symmetric. dsyrk adds alpha times each block of
    its inner dimension to c in turn, so the result is bit-identical to
    forming alpha W^T W first and subtracting it only while W has no more
    rows than one such block (a few hundred); beyond that it differs from it
    by rounding.
    """
    f = c.T if c.flags.c_contiguous else c
    if not f.flags.f_contiguous:
        raise ValueError("subtract_gram needs a C- or F-contiguous c")
    out = dsyrk(-alpha, w, beta=1.0, c=f, trans=1, lower=1, overwrite_c=1)
    check_in_place(out, f, "syrk")
    _mirror(f.T, from_upper=True)


def kernel_matrix(a_xy, b_xy, params: KernelParams, tx: Position, *, upper_only: bool = False) -> np.ndarray:
    """Composite kernel between all rows of a_xy and b_xy.

    Assembled in the output one block of about _BLOCK_BYTES of rows at a
    time: distances, exp, the rank-one term and the constant, each in place.
    The rank-one term is formed as qa_i qb_j before scaling, so
    kernel_matrix(a, a) is exactly symmetric.

    With upper_only (a and b the same nodes), each block of rows is filled
    only from the column of its first row on, which covers the triangle
    ``subtract_gram`` reads (column >= row); every entry there is the one
    the full build gives, and the rest of the output is zero.
    """
    a = np.asarray(a_xy, dtype=float).reshape(-1, 2)
    b = np.asarray(b_xy, dtype=float).reshape(-1, 2)
    qa = log_distance_feature(clamped_distances(a, tx))
    qb = log_distance_feature(clamped_distances(b, tx))
    # np.zeros is calloc: the part left unfilled costs no pass
    out = (np.zeros if upper_only else np.empty)((a.shape[0], b.shape[0]))
    for rows in row_blocks(a.shape[0], b.shape[0]):
        cols = slice(rows.start if upper_only else 0, None)
        blk = out[rows, cols]
        np.divide(distance_matrix(a[rows], b[cols]), -params.decay_scale, out=blk)
        np.exp(blk, out=blk)
        blk *= params.sigma_k**2
        rank_one = np.multiply.outer(qa[rows], qb[cols])
        rank_one *= params.sigma_alpha_k**2
        blk += rank_one
        blk += params.sigma_p_k**2
    return out


def kernel_diag(xy, params: KernelParams, tx: Position) -> np.ndarray:
    """Diagonal of kernel_matrix(xy, xy): sigma_k^2 + sigma_alpha^2 q^2 + sigma_p^2."""
    q = log_distance_feature(clamped_distances(xy, tx))
    return params.sigma_k**2 + params.sigma_alpha_k**2 * q**2 + params.sigma_p_k**2


def condition(xy, targets_xy, rhs, kernel: KernelParams, kernel_tx: Position, noise_var) -> tuple:
    """Condition the GP on reports at xy: (L, K_gX, (K_X + S)^-1 rhs).

    Zero reports raise ValueError: there is nothing to condition on. L is
    the lower Cholesky factor of the training covariance K_X + S with
    S = diag(noise_var), escalating jitter if needed. It is factored in the
    buffer K_X + S was built in, whose strict upper triangle it keeps, so it
    is read only by potrs and lower=True triangular solves. K_gX is the
    kernel between the targets and the reports. Both kernels use (kernel,
    kernel_tx). Callers that need W = L^-1 K_Xg take one triangular solve
    into K_gX's buffer (``solve_w``). (Rasmussen & Williams, GPML 2006,
    Algorithm 2.1.) Every call empties the handoff slot.
    """
    _handoff.clear()
    if np.size(xy) == 0:
        raise ValueError("cannot condition on zero reports")
    c = kernel_matrix(xy, xy, kernel, kernel_tx)
    c[np.diag_indices_from(c)] += noise_var
    low, _ = chol_with_jitter(c, "training covariance")
    solved, _ = dpotrs(low, rhs, lower=1)
    k_gx = kernel_matrix(targets_xy, xy, kernel, kernel_tx)
    return low, k_gx, solved


def solve_w(low: np.ndarray, k_gx: np.ndarray) -> np.ndarray:
    """W = L^-1 K_Xg (N x m, F-ordered), solved in K_gX's own buffer.

    L and K_gX are scanned by ``check_finite`` instead of scipy's scan, so a
    non-finite entry still raises scipy's ValueError but no N x m boolean
    array is made.
    """
    check_finite(low, k_gx)
    w = solve_triangular(low, k_gx.T, lower=True, overwrite_b=True, check_finite=False)
    check_in_place(w, k_gx, "trtrs")
    return w


def _handoff_key(xy, targets_xy, kernel: KernelParams, kernel_tx: Position, noise_var) -> tuple:
    """An exact copy of the inputs of a conditioning: report positions, target
    nodes, noise variances, kernel and fix (the last two are frozen)."""
    arrays = (xy, targets_xy, noise_var)
    return (*(np.asarray(a, dtype=float).tobytes() for a in arrays), kernel, kernel_tx)


def condition_w(xy, targets_xy, rhs, kernel: KernelParams, kernel_tx: Position, noise_var) -> tuple:
    """(L, W, (K_X + S)^-1 rhs) with W = L^-1 K_Xg, as ``condition`` and
    ``solve_w`` give them.

    When the handoff slot holds ``posterior``'s conditioning on exactly these
    inputs (see the module docstring), L and W are taken from it instead, and
    rhs costs one potrs on L. The slot is empty afterwards either way.
    """
    taken = _handoff.pop(_handoff_key(xy, targets_xy, kernel, kernel_tx, noise_var), None)
    if taken is None:
        low, k_gx, solved = condition(xy, targets_xy, rhs, kernel, kernel_tx, noise_var)
        return low, solve_w(low, k_gx), solved
    low, w = taken
    solved, _ = dpotrs(low, rhs, lower=1)
    return low, w, solved


def prior_mean(positions, hyper: HyperEstimate) -> np.ndarray:
    """Log-distance prior mean mu_p - mu_alpha * 10 log10(d_hat), dBm."""
    q = log_distance_feature(clamped_distances(positions, hyper.tx))
    return hyper.mu_p - hyper.mu_alpha * q


def _nlml_objective(dists, noise_diag, resid, qouter, frozen):
    """Negative log marginal likelihood and gradient in log-parameter space,
    as f(theta) -> (nlml, grad) with theta = log([vk, s]) and frozen the
    fixed (va, vp).

    Built once per fit: f works in three N x N buffers of its own (exp(-D/s),
    C and E o D), and va q q^T is formed once. C is assembled in one fixed
    operation order, vk E + va q q^T + vp + diag(noise), factored in place
    through its F-ordered view (potrf, which also zeroes the other triangle),
    solved for beta (potrs) and inverted in place (potri). With the gradient
    1/2 tr((C^-1 - beta beta^T) dC) (Rasmussen & Williams, GPML 2006,
    5.4.1), each trace of a symmetric A is taken from potri's triangle alone,
    tr(C^-1 A) = 2 <tril C^-1, A> - <diag C^-1, diag A>, as one ddot over
    the flat buffer (diag E = 1, diag E o D = 0), and beta^T A beta through
    matvec. Every evaluation rebuilds all three buffers, so none carries
    state from the one before.
    """
    n = resid.shape[0]
    va, vp = frozen
    va_q = va * qouter
    expo, c, expo_d = np.empty((n, n)), np.empty((n, n)), np.empty((n, n))
    low = c.T  # c is exactly symmetric, so its F-ordered view is C itself
    flat_c, flat_expo, flat_expo_d = c.reshape(-1), expo.reshape(-1), expo_d.reshape(-1)
    diag = np.diag_indices(n)

    def f(theta):
        vk, s = math.exp(theta[0]), math.exp(theta[1])
        np.divide(dists, -s, out=expo)
        np.exp(expo, out=expo)
        np.multiply(expo, vk, out=c)
        np.add(c, va_q, out=c)
        np.add(c, vp, out=c)
        c[diag] += noise_diag
        if not all_finite(c):
            raise NumericalError("kernel-fit covariance has non-finite entries")
        if _potrf(low, clean=1):
            return 1e25, np.zeros(2)
        beta, _ = dpotrs(low, resid, lower=1)
        logdet = 2.0 * float(np.sum(np.log(np.diag(low))))
        nlml = 0.5 * float(resid @ beta) + 0.5 * logdet + 0.5 * n * _LOG2PI

        # potri leaves C^-1 in the lower triangle of low; the other is zero
        out, info = dpotri(low, lower=1, overwrite_c=1)
        check_in_place(out, low, "potri")
        if info:
            return 1e25, np.zeros(2)
        np.multiply(expo, dists, out=expo_d)
        # dC/d log vk = vk E and dC/d log s = vk E o D / s
        tr_e = 2.0 * ddot(flat_c, flat_expo) - float(np.sum(np.diag(low)))
        tr_ed = 2.0 * ddot(flat_c, flat_expo_d)
        grad_vk = 0.5 * vk * (tr_e - float(beta @ matvec(expo, beta)))
        grad_s = 0.5 * vk / s * (tr_ed - float(beta @ matvec(expo_d, beta)))
        return nlml, np.array([grad_vk, grad_s])

    return f


def _nlml_inputs(train, hyper, noise: NoiseModel) -> tuple:
    """(dists, noise_diag, resid, qouter): the per-snapshot arguments of
    ``_nlml_objective`` before ``frozen``."""
    xy, z = train
    xy = np.asarray(xy, dtype=float).reshape(-1, 2)
    z = np.asarray(z, dtype=float).reshape(-1)
    d_hat = clamped_distances(xy, hyper.tx)
    q = log_distance_feature(d_hat)
    return distance_matrix(xy, xy), noise.variances(d_hat), z - prior_mean(xy, hyper), np.outer(q, q)


def _starts(resid, dists):
    """The four L-BFGS-B starts, each inside the bounds of ``fit_kernel``,
    from at least the 3 reports it needs."""
    vk0 = float(np.clip(np.var(resid), 1e-3, 9e3))
    s0 = float(np.clip(np.median(dists[np.triu_indices_from(dists, k=1)]), 2.0, 1900.0))
    raw = [(vk0, s0), (10.0, 50.0), (1.0, 500.0), (vk0, 2.0)]
    return [np.log(np.asarray(r)) for r in raw]


def fit_kernel(train, hyper: HyperEstimate, noise: NoiseModel) -> KernelParams:
    """Spatial kernel scales minimizing the negative log marginal likelihood.

    Fits sigma_k^2 and the decay scale by bounded L-BFGS-B from every start
    of ``_starts``, in log-parameter space with analytic gradients; the
    result is the deterministic argmin over the starts (ties broken by start
    order).
    sigma_alpha_k^2 and sigma_p_k^2 are frozen at hyper.var_alpha and
    hyper.var_p. One ``_nlml_objective``, with its N x N buffers, serves
    every start; a theta whose C does not factor scores 1e25 with a zero
    gradient, and a non-finite C raises NumericalError.
    """
    dists, noise_diag, resid, qouter = _nlml_inputs(train, hyper, noise)
    if resid.shape[0] < 3:
        raise DegenerateFitError("need at least 3 sensors to fit the kernel")
    frozen = (hyper.var_alpha, hyper.var_p)
    bounds = [(math.log(_VAR_LO), math.log(_VAR_HI)), (math.log(_SCALE_LO), math.log(_SCALE_HI))]

    objective = _nlml_objective(dists, noise_diag, resid, qouter, frozen)
    best = None
    for idx, start in enumerate(_starts(resid, dists)):
        res = minimize(
            objective, start, method="L-BFGS-B", jac=True, bounds=bounds, options={"maxiter": _LBFGS_MAXITER}
        )
        key = (float(res.fun), idx)
        if best is None or key < best[0]:
            best = (key, res.x)
    vk, s = math.exp(best[1][0]), math.exp(best[1][1])
    return KernelParams(
        sigma_k=math.sqrt(vk),
        ell=math.sqrt(s / 2.0),
        sigma_alpha_k=math.sqrt(hyper.var_alpha),
        sigma_p_k=math.sqrt(hyper.var_p),
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
    Zero reports raise ValueError (see ``condition``). K_g is built after the
    training covariance is factored, so that factorization never runs beside
    an M x M array, and only on the triangle ``subtract_gram`` reads. The
    returned covariance is assembled and verified positive definite (after
    the jitter ladder) in K_g's buffer, the only M x M array this makes.
    Once it has passed that check, L and W stay in the handoff slot for
    ``condition_w`` (``bounds.hcrb_all``) on the same inputs, until it takes
    them or the next ``condition`` call.
    """
    xy, z = train
    xy = np.asarray(xy, dtype=float).reshape(-1, 2)
    z = np.asarray(z, dtype=float).reshape(-1)
    noise_var = noise.variances(clamped_distances(xy, hyper.tx))
    low, k_gx, beta = condition(xy, grid.xy, z - prior_mean(xy, hyper), kernel, hyper.tx, noise_var)
    mean = prior_mean(grid.xy, hyper) + matvec(k_gx, beta)

    cov = None
    if compute_cov:
        w = solve_w(low, k_gx)
        cov = kernel_matrix(grid.xy, grid.xy, kernel, hyper.tx, upper_only=True)
        subtract_gram(cov, w)
        chol_with_jitter(cov, "grid posterior covariance", check_only=True)
        _handoff[_handoff_key(xy, grid.xy, kernel, hyper.tx, noise_var)] = (low, w)
    return FieldPosterior(t=t, mean=mean, cov=cov, hyper=hyper, kernel=kernel)
