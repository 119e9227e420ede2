import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.linalg.blas import ddot, dsyrk
from scipy.linalg.lapack import dpotri, dpotrs

import rssfield as rf
from rssfield import gp
from rssfield.empbayes import KERNEL_PATH_VAR, HyperEstimate
from rssfield.gp import (
    FieldPosterior,
    KernelParams,
    chol_with_jitter,
    fit_kernel,
    kernel_diag,
    kernel_matrix,
    matvec,
    posterior,
    prior_mean,
    subtract_gram,
    _nlml_inputs,
    _nlml_objective,
)
from rssfield.model import (
    Grid,
    NoiseModel,
    NumericalError,
    Position,
    clamped_distances,
    distance_matrix,
    log_distance_feature,
)


TX = Position(0.0, 0.0)


def hyper_for(mu_p=-10.0, mu_alpha=3.5, var_p=KERNEL_PATH_VAR, var_alpha=KERNEL_PATH_VAR, tx=TX):
    return HyperEstimate(mu_p=mu_p, mu_alpha=mu_alpha, var_p=var_p, var_alpha=var_alpha, tx=tx)


def test_kernel_eval_three_term_oracle():
    params = KernelParams.from_decay(sigma_k=2.0, decay_scale=80.0, sigma_alpha_k=0.3, sigma_p_k=1.5)
    rng = np.random.default_rng(0)
    for _ in range(20):
        xi = Position(*rng.uniform(1, 300, 2))
        xj = Position(*rng.uniform(1, 300, 2))
        d = math.hypot(xi.x - xj.x, xi.y - xj.y)
        qi = 10 * math.log10(max(math.hypot(xi.x, xi.y), 1.0))
        qj = 10 * math.log10(max(math.hypot(xj.x, xj.y), 1.0))
        expected = 4.0 * math.exp(-d / 80.0) + 0.09 * qi * qj + 2.25
        k_ij = kernel_matrix(xi.as_array(), xj.as_array(), params, TX)[0, 0]
        assert_allclose(k_ij, expected, rtol=1e-12)
        assert_allclose(kernel_matrix(xj.as_array(), xi.as_array(), params, TX)[0, 0], k_ij, rtol=1e-15)


def test_kernel_eval_zero_separation():
    params = KernelParams.from_decay(sigma_k=3.0, decay_scale=50.0, sigma_alpha_k=0.2, sigma_p_k=1.0)
    x = np.array([30.0, 40.0])  # 50 m from the transmitter
    q = 10 * math.log10(50.0)
    assert_allclose(kernel_matrix(x, x, params, TX)[0, 0], 9.0 + 0.04 * q * q + 1.0, rtol=1e-12)
    assert_allclose(kernel_diag(x, params, TX), [9.0 + 0.04 * q * q + 1.0], rtol=1e-12)


def test_kernel_eval_long_distance_limit():
    params = KernelParams.from_decay(sigma_k=3.0, decay_scale=50.0, sigma_alpha_k=0.2, sigma_p_k=1.0)
    xi, xj = np.array([10.0, 0.0]), np.array([1e7, 0.0])
    qi, qj = 10 * math.log10(10.0), 10 * math.log10(1e7)
    assert_allclose(kernel_matrix(xi, xj, params, TX)[0, 0], 0.04 * qi * qj + 1.0, rtol=1e-9)


def test_kernel_matrix_exactly_symmetric_and_matches_three_term_formula():
    rng = np.random.default_rng(11)
    params = KernelParams.from_decay(sigma_k=2.5, decay_scale=70.0, sigma_alpha_k=0.2, sigma_p_k=1.3)
    tx = Position(120.0, 90.0)
    a = rng.uniform(0, 300, (40, 2))
    b = rng.uniform(0, 300, (25, 2))
    k_aa = kernel_matrix(a, a, params, tx)
    assert np.array_equal(k_aa, k_aa.T)

    def formula(p, r):
        d = np.sqrt(((p[:, None, :] - r[None, :, :]) ** 2).sum(axis=2))
        qp = 10 * np.log10(np.maximum(np.hypot(p[:, 0] - tx.x, p[:, 1] - tx.y), 1.0))
        qr = 10 * np.log10(np.maximum(np.hypot(r[:, 0] - tx.x, r[:, 1] - tx.y), 1.0))
        return 2.5**2 * np.exp(-d / 70.0) + 0.2**2 * np.outer(qp, qr) + 1.3**2

    assert_allclose(k_aa, formula(a, a), rtol=1e-10)
    assert_allclose(kernel_matrix(a, b, params, tx), formula(a, b), rtol=1e-10)
    assert np.array_equal(kernel_matrix(b, a, params, tx), kernel_matrix(a, b, params, tx).T)


def _kernel_matrix_one_shot(a, b, params, tx):
    """The one-shot assembly kernel_matrix replaced: whole distance matrix, then
    exp, scale, outer(qa, qb) and the constant, each over the whole array."""
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


def _rows_per_block(width):
    return next(gp._blocks(10**9, width)).stop


@pytest.mark.parametrize("width", [1, 37, 1000])
def test_blocked_kernel_matrix_is_bit_identical_to_one_shot_assembly(width):
    rng = np.random.default_rng(width)
    params = KernelParams.from_decay(sigma_k=2.5, decay_scale=70.0, sigma_alpha_k=0.2, sigma_p_k=1.3)
    tx = Position(120.0, 90.0)
    b_xy = rng.uniform(0, 300, (width, 2))
    b = _rows_per_block(width)
    assert b % 32 == 0
    for rows in (1, b - 1, b, b + 1, 2 * b + 1, 3 * b - 1):
        a_xy = rng.uniform(0, 300, (rows, 2))
        assert np.array_equal(kernel_matrix(a_xy, b_xy, params, tx), _kernel_matrix_one_shot(a_xy, b_xy, params, tx))
        assert np.array_equal(kernel_matrix(b_xy, a_xy, params, tx), _kernel_matrix_one_shot(b_xy, a_xy, params, tx))
    # a = b over several blocks: exactly symmetric, as the one-shot matrix is
    a_xy = rng.uniform(0, 300, (2 * _rows_per_block(2 * b + 5) + 7, 2))
    k_aa = kernel_matrix(a_xy, a_xy, params, tx)
    assert np.array_equal(k_aa, _kernel_matrix_one_shot(a_xy, a_xy, params, tx))
    assert np.array_equal(k_aa, k_aa.T)


def test_blocks_cover_the_range_in_whole_blocks():
    for n, width in [(0, 5), (1, 5), (100, 4096), (4096, 4096), (4097, 1024), (5000, 7)]:
        step = _rows_per_block(width)
        blocks = list(gp._blocks(n, width))
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(x.stop == y.start for x, y in zip(blocks, blocks[1:]))
        assert all(x.stop - x.start == step for x in blocks[:-1])
        assert len(blocks) == 1 or step <= blocks[-1].stop - blocks[-1].start < 2 * step


def test_chol_with_jitter_escalates_on_rank_deficient_input():
    mat = np.ones((4, 4))  # rank one: the unjittered factorization fails
    low, jitter = chol_with_jitter(mat, "rank-one matrix")
    assert jitter > 0.0
    assert jitter in [10.0**-k for k in range(4, 11)]
    assert np.shares_memory(low, mat)
    assert np.array_equal(np.triu(low, 1), np.triu(np.ones((4, 4)), 1))  # the upper triangle is mat's own
    factor = np.tril(low)
    assert_allclose(factor @ factor.T, np.ones((4, 4)) + jitter * np.eye(4), rtol=1e-12, atol=1e-12)
    # a positive-definite input needs no jitter
    _, none = chol_with_jitter(np.eye(3) * 2.0)
    assert none == 0.0
    # an indefinite one exhausts the ladder and comes back as it was
    indefinite = np.diag([1.0, -1.0])
    with pytest.raises(NumericalError, match="indefinite"):
        chol_with_jitter(indefinite, "indefinite")
    assert np.array_equal(indefinite, np.diag([1.0, -1.0]))


def _symmetric_cov(m, seed):
    """An exactly symmetric, C-ordered covariance built the way the library builds them."""
    rng = np.random.default_rng(seed)
    params = KernelParams.from_decay(sigma_k=2.0, decay_scale=60.0, sigma_alpha_k=0.1, sigma_p_k=0.5)
    xy = rng.uniform(0, 300, (m, 2))
    mat = kernel_matrix(xy, xy, params, TX)
    mat[np.diag_indices_from(mat)] += 0.5
    return mat


def test_chol_with_jitter_factors_in_the_callers_buffer_bit_identical_to_scipy():
    mat = _symmetric_cov(150, 21)
    want = cholesky(mat, lower=True)
    for arr in (mat.copy(), np.asfortranarray(mat)):
        low, jitter = chol_with_jitter(arr)
        assert jitter == 0.0
        assert np.shares_memory(low, arr) and low.flags.f_contiguous
        assert np.array_equal(np.tril(low), want)
        assert np.array_equal(np.triu(low, 1), np.triu(mat, 1))  # the upper triangle is mat's own
    # a jitter rung factors diag(mat) + jitter in place
    rank_def = np.outer(np.arange(1.0, 41.0), np.arange(1.0, 41.0)) + np.ones((40, 40))
    bumped = rank_def.copy()
    low, jitter = chol_with_jitter(rank_def)
    assert jitter > 0.0 and np.shares_memory(low, rank_def)
    bumped[np.diag_indices_from(bumped)] += jitter
    assert np.array_equal(np.tril(low), cholesky(bumped, lower=True))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_chol_with_jitter_rejects_non_finite_input_before_factoring(monkeypatch, bad):
    monkeypatch.setattr(gp, "dpotrf", lambda *a, **k: pytest.fail("factored a non-finite matrix"))
    mat = _symmetric_cov(30, 23)
    mat[4, 9] = mat[9, 4] = bad
    kept = mat.copy()
    with pytest.raises(NumericalError, match="^grid posterior covariance has non-finite entries$"):
        chol_with_jitter(mat, "grid posterior covariance")
    assert np.array_equal(mat, kept, equal_nan=True)


def _recording_dpotrf(monkeypatch):
    """Patch gp.dpotrf to record whether each call factored in place."""
    calls, real = [], gp.dpotrf

    def recording(a, **kwargs):
        out = real(a, **kwargs)
        calls.append(np.shares_memory(out[0], a))
        return out

    monkeypatch.setattr(gp, "dpotrf", recording)
    return calls


def _check_pd(mat, what="covariance"):
    """The jitter the in-place PD check needed; it returns no factor."""
    low, jitter = chol_with_jitter(mat, what, check_only=True)
    assert low is None
    return jitter


def test_check_only_factors_in_place_and_restores_the_matrix_bit_for_bit(monkeypatch):
    calls = _recording_dpotrf(monkeypatch)
    mat = _symmetric_cov(150, 31)
    kept = mat.copy()
    for arr in (mat, np.asfortranarray(mat)):
        assert _check_pd(arr, "grid posterior covariance") == 0.0
        assert np.array_equal(arr, kept)
    assert calls == [True, True]
    # a jitter rung: the matrix comes back with its own diagonal
    rank_def = np.outer(np.arange(1.0, 41.0), np.arange(1.0, 41.0)) + np.ones((40, 40))
    kept = rank_def.copy()
    _, want = chol_with_jitter(rank_def.copy())
    calls.clear()
    assert _check_pd(rank_def) == want > 0.0
    assert np.array_equal(rank_def, kept)
    assert len(calls) >= 2 and all(calls)  # a failed rung, then the one that passed
    # ladder exhausted: NumericalError, and still the same matrix
    indefinite = _symmetric_cov(60, 32)
    indefinite[np.diag_indices_from(indefinite)] -= 50.0
    kept = indefinite.copy()
    with pytest.raises(NumericalError, match="^recursive grid covariance is not positive definite"):
        _check_pd(indefinite, "recursive grid covariance")
    assert np.array_equal(indefinite, kept)


@pytest.mark.parametrize("check_only", [True, False])
def test_chol_with_jitter_rejects_a_matrix_it_cannot_factor_in_place(monkeypatch, check_only):
    monkeypatch.setattr(gp, "dpotrf", lambda *a, **k: pytest.fail("factored a matrix it cannot factor in place"))
    read_only = _symmetric_cov(50, 33)
    read_only.setflags(write=False)
    strided = _symmetric_cov(100, 34)[::2, ::2]  # symmetric, neither C- nor F-contiguous
    assert not (strided.flags.c_contiguous or strided.flags.f_contiguous)
    for mat in (read_only, strided):
        with pytest.raises(ValueError, match="writeable, C- or F-contiguous"):
            chol_with_jitter(mat, check_only=check_only)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_only_rejects_non_finite_input_before_factoring(monkeypatch, bad):
    monkeypatch.setattr(gp, "dpotrf", lambda *a, **k: pytest.fail("factored a non-finite matrix"))
    mat = _symmetric_cov(300, 24)  # more than one block of rows
    mat[250, 9] = mat[9, 250] = bad
    kept = mat.copy()
    with pytest.raises(NumericalError, match="^grid prior covariance has non-finite entries$"):
        _check_pd(mat, "grid prior covariance")
    assert np.array_equal(mat, kept, equal_nan=True)


def test_a_wrapper_that_writes_into_a_copy_raises_instead_of_losing_the_result(monkeypatch):
    # f2py copies an argument it cannot write into; the in-place factorization
    # and Gram update must notice rather than return the untouched buffer
    real_potrf, real_syrk = gp.dpotrf, gp.dsyrk
    monkeypatch.setattr(gp, "dpotrf", lambda a, **k: real_potrf(np.array(a, order="F"), **k))
    monkeypatch.setattr(gp, "dsyrk", lambda alpha, w, **k: real_syrk(alpha, w, **{**k, "c": k["c"].copy("F")}))
    mat = _symmetric_cov(40, 35)
    with pytest.raises(RuntimeError, match="^potrf wrote into a copy"):
        _check_pd(mat)
    with pytest.raises(RuntimeError, match="^potrf wrote into a copy"):
        chol_with_jitter(mat)
    with pytest.raises(RuntimeError, match="^syrk wrote into a copy"):
        subtract_gram(mat, np.ones((3, 40)))


def test_condition_matches_a_clean_scipy_factor_bit_for_bit():
    # condition keeps the factor in the buffer it built K_X + S in, upper
    # triangle unzeroed; every read of it must see only the lower one
    rng = np.random.default_rng(36)
    xy, targets = rng.uniform(0, 300, (218, 2)), rng.uniform(0, 300, (300, 2))
    kernel = KernelParams.from_decay(sigma_k=2.0, decay_scale=60.0, sigma_alpha_k=0.1, sigma_p_k=0.5)
    noise_var = rng.uniform(0.5, 2.0, 218)
    rhs = rng.normal(0.0, 3.0, 218)
    low, k_gx, solved = gp.condition(xy, targets, rhs, kernel, TX, noise_var)
    c = kernel_matrix(xy, xy, kernel, TX)
    c[np.diag_indices_from(c)] += noise_var
    clean = cholesky(c, lower=True)
    assert np.array_equal(np.tril(low), clean) and np.any(np.triu(low, 1))
    assert np.array_equal(solved, cho_solve((clean, True), rhs))
    assert np.array_equal(k_gx, kernel_matrix(targets, xy, kernel, TX))
    w = solve_triangular(low, k_gx.T, lower=True)
    assert np.array_equal(w, solve_triangular(clean, k_gx.T, lower=True))


def _subtract_gram_two_pass(c, w, alpha):
    """The two-pass formula subtract_gram replaced: c -= s; c -= s.T; reset the diagonal.

    subtract_gram equals it bit for bit only while W has no more rows than one
    dsyrk accumulation block, as in the test below (17 rows).
    """
    s = dsyrk(alpha, w, trans=1, lower=1)
    diag = np.diag(c) - np.diag(s)
    c -= s
    c -= s.T
    c[np.diag_indices_from(c)] = diag


@pytest.mark.parametrize("m", [1, 2, 127, 128, 129, 300])
def test_subtract_gram_is_bit_identical_to_two_pass_formula_and_symmetric(m):
    rng = np.random.default_rng(m)
    c0 = _symmetric_cov(m, m)
    w = rng.standard_normal((17, m))
    for alpha in (1.0, -0.5):
        want = c0.copy()
        _subtract_gram_two_pass(want, w, alpha)
        for order in ("C", "F"):
            got = np.array(c0, order=order)
            subtract_gram(got, w, alpha)
            assert np.array_equal(got, want)
            assert np.array_equal(got, got.T)


@pytest.mark.parametrize("n", [300, 1024])
def test_subtract_gram_beyond_one_accumulation_block_matches_dense_formula(n):
    # W with more rows than one dsyrk accumulation block: the result is c's own
    # buffer, within rounding of the dense c - alpha W^T W and exactly symmetric
    rng = np.random.default_rng(n)
    m = 200
    c0 = _symmetric_cov(m, n)
    w = np.asfortranarray(rng.standard_normal((n, m)))
    for alpha in (1.0, 0.3):
        dense = c0 - alpha * (w.T @ w)
        for order in ("C", "F"):
            got = np.array(c0, order=order)
            assert subtract_gram(got, w, alpha) is None
            assert_allclose(got, dense, rtol=0, atol=1e-13 * np.max(np.abs(dense)))
            assert np.array_equal(got, got.T)
    with pytest.raises(ValueError, match="contiguous"):
        subtract_gram(_symmetric_cov(2 * m, n)[::2, ::2], w, 1.0)


@pytest.mark.parametrize("shape", [(1, 5), (5, 1), (7, 3), (218, 1088), (1088, 218), (2000, 600)])
def test_matvec_is_bit_identical_to_numpy_on_both_memory_orders(shape):
    rng = np.random.default_rng(sum(shape))
    a = rng.standard_normal(shape)
    x = rng.standard_normal(shape[1])
    for arr in (a, np.asfortranarray(a)):
        got = matvec(arr, x)
        assert got.shape == (shape[0],)
        assert np.array_equal(got, arr @ x)
    # a transposed view, as the callers pass it
    y = rng.standard_normal(shape[0])
    assert np.array_equal(matvec(a.T, y), a.T @ y)


def test_prior_mean_closed_form():
    h = hyper_for()
    m = prior_mean(np.array([[100.0, 0.0]]), h)
    assert_allclose(m, [-80.0], rtol=1e-12)
    flat = prior_mean(np.array([[10.0, 0.0], [200.0, 0.0]]), hyper_for(mu_p=-7.0, mu_alpha=2.0))
    assert_allclose(flat, -7.0 - 2.0 * np.array([10.0, 10 * math.log10(200.0)]), rtol=1e-12)


def test_prior_mean_batch_matches_elementwise():
    rng = np.random.default_rng(1)
    pts = rng.uniform(1, 400, (15, 2))
    h = hyper_for(mu_p=-12.0, mu_alpha=2.8)
    batch = prior_mean(pts, h)
    single = [prior_mean(p.reshape(1, 2), h)[0] for p in pts]
    assert_allclose(batch, single, rtol=1e-15)


def test_noise_cov_values():
    nm = NoiseModel(rho_u=200.0, sigma_w=math.sqrt(7.0))
    assert_allclose(nm.variances(np.array([100.0, 50.0])), [11.0, 7.0 + 16.0], rtol=1e-12)
    flat = NoiseModel(rho_u=0.0, sigma_w=2.0).variances(np.array([10.0, 100.0]))
    assert_allclose(flat, [4.0, 4.0])


def _random_case(rng, n_train=3, n_grid=2):
    xy = rng.uniform(5, 200, (n_train, 2))
    z = rng.uniform(-90, -40, n_train)
    grid = Grid(rng.uniform(5, 200, (n_grid, 2)))
    hyper = hyper_for(mu_p=rng.uniform(-15, -5), mu_alpha=rng.uniform(2, 4), tx=Position(*rng.uniform(50, 150, 2)))
    kernel = KernelParams.from_decay(
        sigma_k=rng.uniform(1, 4), decay_scale=rng.uniform(20, 120),
        sigma_alpha_k=rng.uniform(0.01, 0.3), sigma_p_k=rng.uniform(0.1, 2),
    )
    noise = NoiseModel(rho_u=rng.uniform(0, 300), sigma_w=rng.uniform(0.5, 3))
    return (xy, z), grid, hyper, kernel, noise


def test_posterior_matches_joint_gaussian_conditioning_oracle():
    # condition the explicit joint normal over (train, grid) directly
    rng = np.random.default_rng(2)
    for _ in range(10):
        (xy, z), grid, hyper, kernel, noise = _random_case(rng)
        post = posterior((xy, z), grid, hyper, kernel, noise)

        d_hat = clamped_distances(xy, hyper.tx)
        k_xx = kernel_matrix(xy, xy, kernel, hyper.tx) + np.diag(noise.variances(d_hat))
        k_gx = kernel_matrix(grid.xy, xy, kernel, hyper.tx)
        k_gg = kernel_matrix(grid.xy, grid.xy, kernel, hyper.tx)
        m_x = prior_mean(xy, hyper)
        m_g = prior_mean(grid.xy, hyper)
        inv = np.linalg.inv(k_xx)
        mu = m_g + k_gx @ inv @ (z - m_x)
        cov = k_gg - k_gx @ inv @ k_gx.T
        assert_allclose(post.mean, mu, atol=1e-8)
        assert_allclose(post.cov, 0.5 * (cov + cov.T), atol=1e-8)


def test_posterior_cov_matches_dense_formula_and_is_exactly_symmetric():
    rng = np.random.default_rng(12)
    for _ in range(5):
        (xy, z), grid, hyper, kernel, noise = _random_case(rng, n_train=30, n_grid=40)
        post = posterior((xy, z), grid, hyper, kernel, noise)
        assert np.array_equal(post.cov, post.cov.T)

        d_hat = clamped_distances(xy, hyper.tx)
        k_xx = kernel_matrix(xy, xy, kernel, hyper.tx) + np.diag(noise.variances(d_hat))
        k_gx = kernel_matrix(grid.xy, xy, kernel, hyper.tx)
        dense = kernel_matrix(grid.xy, grid.xy, kernel, hyper.tx) - k_gx @ np.linalg.solve(k_xx, k_gx.T)
        assert_allclose(post.cov, dense, rtol=0, atol=1e-10 * np.max(np.abs(dense)))


def test_posterior_no_training_data_returns_prior():
    rng = np.random.default_rng(3)
    (_, _), grid, hyper, kernel, noise = _random_case(rng)
    post = posterior((np.zeros((0, 2)), np.zeros(0)), grid, hyper, kernel, noise)
    assert_allclose(post.mean, prior_mean(grid.xy, hyper), rtol=1e-12)
    assert_allclose(post.cov, kernel_matrix(grid.xy, grid.xy, kernel, hyper.tx), atol=1e-12)


def test_posterior_noiseless_interpolation_at_coincident_node():
    grid = Grid(np.array([[60.0, 80.0], [10.0, 10.0]]))
    xy = np.array([[60.0, 80.0]])
    z = np.array([-71.3])
    kernel = KernelParams.from_decay(sigma_k=3.0, decay_scale=60.0, sigma_alpha_k=0.0, sigma_p_k=0.0)
    noise = NoiseModel(rho_u=0.0, sigma_w=0.0)
    post = posterior((xy, z), grid, hyper_for(), kernel, noise)
    assert_allclose(post.mean[0], -71.3, atol=1e-8)
    assert abs(post.cov[0, 0]) < 1e-8


def test_posterior_exchangeable_in_training_order():
    rng = np.random.default_rng(4)
    (xy, z), grid, hyper, kernel, noise = _random_case(rng, n_train=6, n_grid=3)
    post = posterior((xy, z), grid, hyper, kernel, noise)
    perm = rng.permutation(6)
    post_p = posterior((xy[perm], z[perm]), grid, hyper, kernel, noise)
    assert_allclose(post.mean, post_p.mean, atol=1e-10)
    assert_allclose(post.cov, post_p.cov, atol=1e-10)


def test_posterior_variance_bounded_by_prior_and_shrinks_with_data():
    rng = np.random.default_rng(5)
    (xy, z), grid, hyper, kernel, noise = _random_case(rng, n_train=5, n_grid=4)
    noise = NoiseModel(rho_u=0.0, sigma_w=0.0)  # noiseless-kernel small case
    prior_var = kernel_diag(grid.xy, kernel, hyper.tx)
    post_all = posterior((xy, z), grid, hyper, kernel, noise)
    assert np.all(post_all.cov.diagonal() <= prior_var + 1e-10)
    assert np.all(post_all.cov.diagonal() >= -1e-10)
    # adding a training point never increases any node variance
    post_fewer = posterior((xy[:4], z[:4]), grid, hyper, kernel, noise)
    assert np.all(post_all.cov.diagonal() <= post_fewer.cov.diagonal() + 1e-8)


def test_nlml_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    xy = rng.uniform(0, 300, (25, 2))
    hyper = hyper_for()
    z = prior_mean(xy, hyper) + rng.normal(0, 3, 25)
    d_hat = clamped_distances(xy, hyper.tx)
    resid = z - prior_mean(xy, hyper)
    q = log_distance_feature(d_hat)
    data = (distance_matrix(xy, xy), NoiseModel(rho_u=150.0, sigma_w=2.0).variances(d_hat), resid, np.outer(q, q))
    for _ in range(5):
        draw = rng.uniform([-2, 1, -6, -3], [3, 6, -1, 2])
        theta, nlml = draw[:2], _nlml_objective(*data, (math.exp(draw[2]), math.exp(draw[3])))
        _, grad = nlml(theta)
        fd = np.zeros_like(theta)
        eps = 1e-6
        for j in range(len(theta)):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += eps
            tm[j] -= eps
            fp, _ = nlml(tp)
            fm, _ = nlml(tm)
            fd[j] = (fp - fm) / (2 * eps)
        assert_allclose(grad, fd, rtol=1e-4, atol=1e-7)


def _nlml_explicit_inverse(theta, dists, noise_diag, resid, qouter, frozen):
    """Oracle: NLML and gradient with C^-1 = cho_solve(L, I) and one trace per dC."""
    vk, s = math.exp(theta[0]), math.exp(theta[1])
    va, vp = frozen
    expo = np.exp(-dists / s)
    c = vk * expo + va * qouter + vp + np.diag(noise_diag)
    low = cholesky(c, lower=True)
    beta = cho_solve((low, True), resid)
    nlml = 0.5 * resid @ beta + np.sum(np.log(np.diag(low))) + 0.5 * len(resid) * math.log(2 * math.pi)
    diff = cho_solve((low, True), np.eye(len(resid))) - np.outer(beta, beta)
    dcs = [vk * expo, vk * expo * dists / s]
    return nlml, np.array([0.5 * np.sum(diff * dc) for dc in dcs])


def _nlml_scipy_cholesky(theta, dists, noise_diag, resid, qouter, frozen):
    """_nlml_objective's formula on scipy.linalg.cholesky of the C-ordered C,
    which factors a transposed F-ordered copy instead of C's own buffer."""
    vk, s = math.exp(theta[0]), math.exp(theta[1])
    va, vp = frozen
    n = resid.shape[0]
    expo = np.exp(-dists / s)
    c = vk * expo + va * qouter + vp
    c[np.diag_indices_from(c)] += noise_diag
    low = cholesky(c, lower=True)
    beta, _ = dpotrs(low, resid, lower=1)
    logdet = 2.0 * float(np.sum(np.log(np.diag(low))))
    nlml = 0.5 * float(resid @ beta) + 0.5 * logdet + 0.5 * n * math.log(2.0 * math.pi)
    inv, info = dpotri(low, lower=1)
    assert info == 0
    flat = inv.T.reshape(-1)  # the F-ordered buffer, element by element as stored
    expo_d = expo * dists
    tr_e = 2.0 * ddot(flat, expo.reshape(-1)) - float(np.sum(np.diag(inv)))
    tr_ed = 2.0 * ddot(flat, expo_d.reshape(-1))
    grad = [0.5 * vk * (tr_e - float(beta @ matvec(expo, beta))),
            0.5 * vk / s * (tr_ed - float(beta @ matvec(expo_d, beta)))]
    return nlml, np.array(grad)


def _nlml_data(n, seed):
    """(dists, noise_diag, resid, qouter) of n reports with heteroscedastic noise."""
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0, 500, (n, 2))
    hyper = hyper_for(tx=Position(250.0, 250.0))
    z = prior_mean(xy, hyper) + rng.normal(0, 3, n)
    return _nlml_inputs((xy, z), hyper, NoiseModel(rho_u=150.0, sigma_w=2.0))


def test_nlml_objective_matches_explicit_inverse_oracle_at_reference_size():
    data = _nlml_data(218, seed=12)
    assert np.ptp(data[1]) > 1.0  # the noise is heteroscedastic
    rng = np.random.default_rng(12)
    for _ in range(4):
        theta = rng.uniform([-2, 1, -6, -3], [3, 6, -1, 2])
        th, frozen = theta[:2], (math.exp(theta[2]), math.exp(theta[3]))
        val, grad = _nlml_objective(*data, frozen)(th)
        want_val, want_grad = _nlml_explicit_inverse(th, *data, frozen)
        assert_allclose(val, want_val, rtol=1e-10)
        assert_allclose(grad, want_grad, rtol=1e-10)
        # factoring C's F-ordered view changes no bit of either
        same_val, same_grad = _nlml_scipy_cholesky(th, *data, frozen)
        assert val == same_val and np.array_equal(grad, same_grad)


def test_nlml_objective_buffers_carry_no_state_between_evaluations():
    data = _nlml_data(60, seed=14)
    frozen = (1e-2, 0.5)
    theta_a, theta_b = np.array([1.0, 3.0]), np.array([-1.0, 5.5])
    # C ~ 1e30 (1 1^T) + noise: the rounding of the rank-one term swamps the noise
    theta_bad = np.array([math.log(1e30), math.log(1e30)])
    nlml = _nlml_objective(*data, frozen)
    first = nlml(theta_a)
    val, grad = nlml(theta_bad)
    assert val == 1e25 and np.array_equal(grad, np.zeros(2))
    nlml(theta_b)
    again = nlml(theta_a)
    fresh = _nlml_objective(*data, frozen)(theta_a)
    for got in (first, again):
        assert got[0] == fresh[0] and np.array_equal(got[1], fresh[1])


def test_fit_kernel_matches_a_fit_driven_by_the_explicit_inverse_oracle(monkeypatch):
    rng = np.random.default_rng(15)
    xy = rng.uniform(0, 500, (120, 2))
    hyper = hyper_for(var_p=1.3, var_alpha=0.02, tx=Position(250.0, 250.0))
    true = KernelParams.from_decay(math.sqrt(8.0), 60.0, math.sqrt(0.02), math.sqrt(1.3))
    low = np.linalg.cholesky(kernel_matrix(xy, xy, true, hyper.tx) + 1e-9 * np.eye(120))
    z = prior_mean(xy, hyper) + low @ rng.standard_normal(120) + rng.normal(0, 2.0, 120)
    noise = NoiseModel(rho_u=150.0, sigma_w=2.0)
    fitted = fit_kernel((xy, z), hyper, noise)
    monkeypatch.setattr(gp, "_nlml_objective",
                        lambda *args: lambda theta: _nlml_explicit_inverse(theta, *args))
    oracle = fit_kernel((xy, z), hyper, noise)
    assert_allclose(fitted.sigma_k**2, oracle.sigma_k**2, rtol=1e-6)
    assert_allclose(fitted.decay_scale, oracle.decay_scale, rtol=1e-6)


def test_nlml_objective_rejects_non_finite_covariance():
    xy = np.random.default_rng(13).uniform(0, 300, (12, 2))
    dists = distance_matrix(xy, xy)
    dists[2, 5] = dists[5, 2] = np.nan
    q = log_distance_feature(clamped_distances(xy, TX))
    nlml = _nlml_objective(dists, np.ones(12), np.zeros(12), np.outer(q, q), (1e-4, 1e-4))
    with pytest.raises(NumericalError, match="kernel-fit covariance has non-finite entries"):
        nlml(np.zeros(2))


def test_fit_kernel_recovers_scales_from_simulated_fields():
    # self-consistency: data generated from known kernel scales; the fitted
    # exponential variance and decay scale land within a factor of 2 (median
    # over seeds)
    true = KernelParams.from_decay(sigma_k=math.sqrt(10.0), decay_scale=50.0, sigma_alpha_k=0.0, sigma_p_k=0.0)
    noise = NoiseModel(rho_u=0.0, sigma_w=1.0)
    hyper = hyper_for(mu_p=0.0, mu_alpha=2.0, tx=Position(250.0, 250.0))
    vks, scales = [], []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        xy = rng.uniform(0, 500, (200, 2))
        cov = kernel_matrix(xy, xy, true, hyper.tx)
        cov[np.diag_indices_from(cov)] += 1e-9
        f = np.linalg.cholesky(cov) @ rng.standard_normal(200)
        z = prior_mean(xy, hyper) + f + rng.normal(0, 1.0, 200)
        fitted = fit_kernel((xy, z), hyper, noise, n_starts=2)
        vks.append(fitted.sigma_k**2)
        scales.append(fitted.decay_scale)
    assert 5.0 <= np.median(vks) <= 20.0
    assert 25.0 <= np.median(scales) <= 100.0


def test_noisier_model_never_fits_better():
    rng = np.random.default_rng(7)
    xy = rng.uniform(0, 400, (60, 2))
    hyper = hyper_for()
    z = prior_mean(xy, hyper) + rng.normal(0, 3, 60)
    base = NoiseModel(rho_u=100.0, sigma_w=2.0)
    doubled = NoiseModel(rho_u=100.0, sigma_w=4.0)
    k_base = fit_kernel((xy, z), hyper, base)
    k_doubled = fit_kernel((xy, z), hyper, doubled)

    def nlml(kernel, noise):
        theta = np.log([kernel.sigma_k**2, kernel.decay_scale])
        frozen = (kernel.sigma_alpha_k**2, kernel.sigma_p_k**2)
        return _nlml_objective(*_nlml_inputs((xy, z), hyper, noise), frozen)(theta)[0]

    assert nlml(k_doubled, doubled) >= nlml(k_base, base) - 1e-6


def test_fit_kernel_freezes_known_prior_variances():
    rng = np.random.default_rng(8)
    xy = rng.uniform(0, 300, (40, 2))
    hyper = hyper_for(var_p=1.44, var_alpha=0.0064)
    z = prior_mean(xy, hyper) + rng.normal(0, 2, 40)
    fitted = fit_kernel((xy, z), hyper, NoiseModel(rho_u=0.0, sigma_w=1.0))
    assert_allclose(fitted.sigma_p_k, 1.2, rtol=1e-12)
    assert_allclose(fitted.sigma_alpha_k, 0.08, rtol=1e-12)


@pytest.mark.parametrize("variance_path", ["kernel", "empirical"])
def test_fit_kernel_optimizes_only_the_two_spatial_scales(monkeypatch, variance_path):
    sc = rf.benchmark_scenario(seed=3, nx=5, ny=5, n_sensors=40, area=(300.0, 300.0))
    snap, _ = rf.sample_snapshot(sc, 0)
    noise = NoiseModel(rho_u=0.0, sigma_w=sc.params.sigma_w)
    config = rf.PipelineConfig(noise=noise, area_bounds=sc.area_bounds, n_starts=4)
    if variance_path == "empirical":
        config.sigma_v_sq = sc.params.sigma_v**2
    calls, real_minimize = [], gp.minimize

    def recording_minimize(fun, x0, **kwargs):
        calls.append((np.shape(x0), len(kwargs["bounds"])))
        return real_minimize(fun, x0, **kwargs)

    monkeypatch.setattr(gp, "minimize", recording_minimize)
    result = rf.run_static(snap, sc.grid, config, compute_cov=False)
    assert calls == [((2,), 2)] * 4
    kernel, hyper = result.kernel, result.hyper
    if variance_path == "kernel":
        assert hyper.var_alpha == hyper.var_p == KERNEL_PATH_VAR
        assert kernel.sigma_alpha_k**2 == kernel.sigma_p_k**2 == KERNEL_PATH_VAR
    else:
        assert kernel.sigma_alpha_k == math.sqrt(hyper.var_alpha)
        assert kernel.sigma_p_k == math.sqrt(hyper.var_p)


def test_field_posterior_validation():
    h = hyper_for()
    k = KernelParams.from_decay(1.0, 50.0)
    with pytest.raises(ValueError):
        FieldPosterior(t=0, mean=np.zeros(3), cov=np.zeros((2, 2)), hyper=h, kernel=k)
