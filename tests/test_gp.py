import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rssfield.empbayes import HyperEstimate
from rssfield.gp import (
    FieldPosterior,
    KernelParams,
    chol_with_jitter,
    fit_kernel,
    kernel_eval,
    kernel_matrix,
    negative_log_marginal_likelihood,
    noise_cov,
    posterior,
    prior_mean,
    _nlml_parts,
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


def hyper_for(mu_p=-10.0, mu_alpha=3.5, var_p=None, var_alpha=None, tx=TX):
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
        assert_allclose(kernel_eval(xi, xj, params, TX), expected, rtol=1e-12)
        assert_allclose(kernel_eval(xj, xi, params, TX), kernel_eval(xi, xj, params, TX), rtol=1e-15)


def test_kernel_eval_zero_separation():
    params = KernelParams.from_decay(sigma_k=3.0, decay_scale=50.0, sigma_alpha_k=0.2, sigma_p_k=1.0)
    x = Position(30.0, 40.0)  # 50 m from the transmitter
    q = 10 * math.log10(50.0)
    assert_allclose(kernel_eval(x, x, params, TX), 9.0 + 0.04 * q * q + 1.0, rtol=1e-12)


def test_kernel_eval_long_distance_limit():
    params = KernelParams.from_decay(sigma_k=3.0, decay_scale=50.0, sigma_alpha_k=0.2, sigma_p_k=1.0)
    xi, xj = Position(10.0, 0.0), Position(1e7, 0.0)
    qi, qj = 10 * math.log10(10.0), 10 * math.log10(1e7)
    assert_allclose(kernel_eval(xi, xj, params, TX), 0.04 * qi * qj + 1.0, rtol=1e-9)


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


def test_chol_with_jitter_escalates_on_rank_deficient_input_without_modifying_it():
    mat = np.ones((4, 4))  # rank one: the unjittered factorization fails
    mat.setflags(write=False)
    low, jitter = chol_with_jitter(mat, "rank-one matrix")
    assert jitter > 0.0
    assert jitter in [10.0**-k for k in range(4, 11)]
    assert np.array_equal(mat, np.ones((4, 4)))
    assert_allclose(low @ low.T, mat + jitter * np.eye(4), rtol=1e-12, atol=1e-12)
    # a positive-definite input needs no jitter
    _, none = chol_with_jitter(np.eye(3) * 2.0)
    assert none == 0.0
    # an indefinite one exhausts the ladder
    with pytest.raises(NumericalError, match="indefinite"):
        chol_with_jitter(np.diag([1.0, -1.0]), "indefinite")


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
    cov = noise_cov(np.array([100.0, 50.0]), nm)
    assert_allclose(np.diag(cov), [11.0, 7.0 + 16.0], rtol=1e-12)
    assert_allclose(cov - np.diag(np.diag(cov)), 0.0)
    flat = noise_cov(np.array([10.0, 100.0]), NoiseModel(rho_u=0.0, sigma_w=2.0))
    assert_allclose(np.diag(flat), [4.0, 4.0])


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
    prior_var = np.array([kernel_eval(Position(*g), Position(*g), kernel, hyper.tx) for g in grid.xy])
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
    args = (distance_matrix(xy, xy), NoiseModel(rho_u=150.0, sigma_w=2.0).variances(d_hat), resid, np.outer(q, q), None)
    for _ in range(5):
        theta = rng.uniform([-2, 1, -6, -3], [3, 6, -1, 2])
        _, grad = _nlml_parts(theta, *args)
        fd = np.zeros_like(theta)
        eps = 1e-6
        for j in range(len(theta)):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += eps
            tm[j] -= eps
            fp, _ = _nlml_parts(tp, *args)
            fm, _ = _nlml_parts(tm, *args)
            fd[j] = (fp - fm) / (2 * eps)
        assert_allclose(grad, fd, rtol=1e-4, atol=1e-7)


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
        fitted = fit_kernel((xy, z), hyper, noise, n_starts=2, maxiter=120)
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
    nlml_base = negative_log_marginal_likelihood((xy, z), hyper, k_base, base)
    nlml_doubled = negative_log_marginal_likelihood((xy, z), hyper, k_doubled, doubled)
    assert nlml_doubled >= nlml_base - 1e-6


def test_fit_kernel_freezes_known_prior_variances():
    rng = np.random.default_rng(8)
    xy = rng.uniform(0, 300, (40, 2))
    hyper = hyper_for(var_p=1.44, var_alpha=0.0064)
    z = prior_mean(xy, hyper) + rng.normal(0, 2, 40)
    fitted = fit_kernel((xy, z), hyper, NoiseModel(rho_u=0.0, sigma_w=1.0))
    assert_allclose(fitted.sigma_p_k, 1.2, rtol=1e-12)
    assert_allclose(fitted.sigma_alpha_k, 0.08, rtol=1e-12)


def test_field_posterior_validation():
    h = hyper_for()
    k = KernelParams.from_decay(1.0, 50.0)
    with pytest.raises(ValueError):
        FieldPosterior(t=0, mean=np.zeros(3), cov=np.zeros((2, 2)), hyper=h, kernel=k)
