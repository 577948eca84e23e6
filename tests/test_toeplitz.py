import math

import numpy as np
import pytest
import scipy.linalg

import oracles
from hurstbayes import _levinson
from hurstbayes.fgn import replicate_rng
from hurstbayes.symbols import autocov_seq
from hurstbayes.toeplitz import (InverseKernelSpec, NotPositiveDefiniteError,
                                 build_system, inverse_entry,
                                 inverse_kernel_prediction, logdet_and_quad,
                                 quad_form, toeplitz_matrix, whittle_quad_form)


@pytest.mark.parametrize("h", [0.1, 0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("n", [4, 32, 128])
def test_levinson_matches_dense(h, n):
    gam = autocov_seq(h, n).gammas
    y = replicate_rng(5, n).standard_normal(n)
    system = build_system(gam)
    ld_ref, quad_ref = oracles.dense_logdet_quad(gam, y)
    assert system.logdet == pytest.approx(ld_ref, abs=1e-8)
    assert quad_form(system, y) == pytest.approx(quad_ref, rel=1e-8)
    fused_ld, fused_quad = logdet_and_quad(gam, y)
    assert fused_ld == pytest.approx(system.logdet, rel=1e-12)
    assert fused_quad == pytest.approx(quad_form(system, y), rel=1e-12)


@pytest.fixture(params=["numpy", "jit"])
def kernel_backend(request, monkeypatch):
    """Run a test once per Levinson kernel: the numpy fallback everywhere,
    the numba kernel wherever numba imports."""
    if request.param == "numpy":
        monkeypatch.setattr(_levinson, "HAVE_JIT", False)
    else:
        pytest.importorskip("numba")
        assert _levinson.HAVE_JIT
    return request.param


@pytest.mark.parametrize("n", [1, 2, 3, 4, 32])
def test_levinson_kernels_match_dense(kernel_backend, n):
    gam = autocov_seq(0.7, n).gammas
    y = replicate_rng(10, n).standard_normal(n)
    refl, sig, status, _ = _levinson.durbin(gam)
    assert status == 0
    assert refl.shape == (n - 1,) and np.all(np.abs(refl) < 1.0)
    # leading principal minors: det T_m = prod of the first m variances
    for m in range(1, n + 1):
        ld_ref, _ = oracles.dense_logdet_quad(gam[:m], y[:m])
        assert float(np.sum(np.log(sig[:m]))) == pytest.approx(ld_ref, abs=1e-10)
    x, sig_solve, status = _levinson.levinson_solve(gam, y)
    assert status == 0
    np.testing.assert_allclose(sig_solve, sig, rtol=1e-12)
    np.testing.assert_allclose(x, oracles.dense_inverse(gam) @ y,
                               rtol=1e-9, atol=1e-12)
    _, quad_ref = oracles.dense_logdet_quad(gam, y)
    assert float(y @ x) == pytest.approx(quad_ref, rel=1e-10)
    # leading 2x2 block is positive definite, the full 3x3 is not
    bad = np.array([1.0, 0.9, -0.9])
    assert _levinson.durbin(bad)[2] == 2
    assert _levinson.levinson_solve(bad, np.ones(3))[2] == 2


def test_solve_is_an_inverse():
    gam = autocov_seq(0.8, 64).gammas
    cov = scipy.linalg.toeplitz(gam)
    y = replicate_rng(6, 0).standard_normal(64)
    x = build_system(gam).solve(y)
    assert np.max(np.abs(cov @ x - y)) < 1e-9


@pytest.mark.parametrize("h", [0.02, 0.5, 0.98])
def test_semencul_quad_and_solve_match_dense(h):
    # the FFT quadratic form and solve built from the last predictor against
    # dense Cholesky and the dense inverse, at a size well past the small-n
    # oracle tests above
    n = 2048
    gam = autocov_seq(h, n).gammas
    y = replicate_rng(11, n).standard_normal(n)
    system = build_system(gam)
    ld_ref, quad_ref = oracles.dense_logdet_quad(gam, y)
    assert quad_form(system, y) == pytest.approx(quad_ref, rel=1e-10)
    assert logdet_and_quad(gam, y) == pytest.approx((ld_ref, quad_ref),
                                                    rel=1e-10)
    x_ref = oracles.dense_inverse(gam) @ y
    err = np.linalg.norm(system.solve(y) - x_ref)
    assert err <= 1e-10 * np.linalg.norm(x_ref)


def test_solve_and_inverse_entry_make_no_levinson_pass(monkeypatch):
    # once factored, every product with T^{-1} comes from the stored
    # predictor; a second recursion would raise here
    n = 256
    gam = autocov_seq(0.7, n).gammas
    system = build_system(gam)

    def no_pass(*args):
        raise AssertionError("Levinson pass after factorization")

    monkeypatch.setattr(_levinson, "levinson_solve", no_pass)
    monkeypatch.setattr(_levinson, "durbin", no_pass)
    y = replicate_rng(12, n).standard_normal(n)
    inv = oracles.dense_inverse(gam)
    np.testing.assert_allclose(system.solve(y), inv @ y, rtol=1e-9, atol=1e-12)
    assert inverse_entry(system, 3, 200) == pytest.approx(inv[2, 199], rel=1e-8)


def test_build_system_input_forms():
    seq = autocov_seq(0.6, 16)
    a = build_system(seq)
    b = build_system(seq.gammas)
    c = build_system(0.6, n=16)
    assert a.logdet == b.logdet == c.logdet
    with pytest.raises(ValueError):
        build_system(0.6)  # Hurst form needs n
    truncated = build_system(seq, 8)
    assert truncated.n == 8


def test_prediction_variances_monotone():
    system = build_system(autocov_seq(0.9, 64))
    assert np.all(system.pred_var > 0.0)
    assert np.all(np.diff(system.pred_var) <= 1e-15)


def test_not_positive_definite_rejected():
    # 3x3 with leading 2x2 fine but negative determinant overall
    with pytest.raises(NotPositiveDefiniteError):
        bad = np.array([1.0, 0.9, -0.9])
        with pytest.warns(RuntimeWarning):
            build_system(bad)


@pytest.mark.parametrize("gam", [
    [1.0, 1.0 - 5e-13],
    # cos(0.7 k) alone has rank 2; the 1e-13 ridge keeps the 4x4 positive
    # definite while the recursion breaks down at order 2
    [1.0 + 1e-13, math.cos(0.7), math.cos(1.4), math.cos(2.1)],
])
def test_dense_fallback_matches_dense_oracle(gam):
    gam = np.array(gam)
    with pytest.warns(RuntimeWarning, match="near breakdown") as record:
        system = build_system(gam)
    assert len(record) == 1
    assert system.used_dense and np.all(np.isnan(system.reflection))
    y = np.linspace(1.0, -0.5, gam.size)
    ld_ref, quad_ref = oracles.dense_logdet_quad(gam, y)
    assert system.logdet == pytest.approx(ld_ref, abs=1e-10)
    assert float(np.sum(np.log(system.pred_var))) == pytest.approx(ld_ref, abs=1e-10)
    x_ref = oracles.dense_inverse(gam) @ y
    np.testing.assert_allclose(system.solve(y), x_ref, rtol=1e-8,
                               atol=1e-8 * np.max(np.abs(x_ref)))
    assert quad_form(system, y) == pytest.approx(quad_ref, rel=1e-8)


def test_numpy_durbin_dots_stay_within_one_chunk(monkeypatch):
    # OpenBLAS threads a dot product above about 10^4 entries; the numpy
    # kernel sums its dots over chunks of at most DOT_CHUNK entries instead
    sizes = []

    def recording_dot(a, b):
        sizes.append(a.size)
        return np.dot(a, b)

    monkeypatch.setattr(_levinson, "HAVE_JIT", False)
    monkeypatch.setattr(_levinson, "_dot", recording_dot)
    n = 20_000
    gam = autocov_seq(0.7, n).gammas
    refl, sig, status, _ = _levinson.durbin(gam)
    assert status == 0 and np.all(np.abs(refl) < 1.0)
    assert max(sizes) == _levinson.DOT_CHUNK
    assert len(sizes) > n - 1  # orders past the chunk took several dots
    # orders below the chunk size never split a dot, so a shorter pass
    # reproduces the leading variances bit for bit
    short = _levinson.durbin(gam[:_levinson.DOT_CHUNK])
    assert np.array_equal(short[1], sig[:_levinson.DOT_CHUNK])
    a, b = replicate_rng(13, 2).standard_normal((2, n))
    assert _levinson._chunked_dot(a, b) == pytest.approx(float(np.dot(a, b)), rel=1e-12)


def test_quad_form_zero_only_at_zero():
    system = build_system(autocov_seq(0.4, 16))
    assert quad_form(system, np.zeros(16)) == 0.0
    y = np.zeros(16)
    y[3] = 1.0
    assert quad_form(system, y) > 0.0


def test_whittle_identity_at_half():
    # 1/f is identically one, so the surrogate is the plain inner product
    y = replicate_rng(7, 1).standard_normal(256)
    assert whittle_quad_form(0.5, y) == pytest.approx(float(y @ y), rel=1e-10)


@pytest.mark.parametrize("h", [0.3, 0.7])
def test_whittle_approximates_exact(h):
    n = 512
    y = replicate_rng(8, int(h * 10)).standard_normal(n)
    exact = quad_form(build_system(autocov_seq(h, n)), y)
    approx = whittle_quad_form(h, y)
    assert abs(approx / exact - 1.0) < 0.15


def test_inverse_entry_matches_dense():
    n, h = 64, 0.7
    gam = autocov_seq(h, n).gammas
    inv = oracles.dense_inverse(gam)
    system = build_system(gam)
    for i, j in ((1, 1), (3, 10), (20, 20), (64, 1), (40, 41)):
        assert inverse_entry(system, i, j) == pytest.approx(
            inv[i - 1, j - 1], rel=1e-8)
    with pytest.raises(IndexError):
        inverse_entry(system, 0, 1)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        InverseKernelSpec(0.0, 64)
    with pytest.raises(ValueError):
        InverseKernelSpec(0.6, 64)
    with pytest.raises(ValueError):
        InverseKernelSpec(0.3, 1)
    assert InverseKernelSpec(0.3, 64).hurst == pytest.approx(0.2)


def test_kernel_prediction_symmetries():
    spec = InverseKernelSpec(0.3, 64)
    for i, j in ((1, 5), (10, 30), (2, 60)):
        direct = inverse_kernel_prediction(spec, i, j)
        assert direct == inverse_kernel_prediction(spec, j, i)
        assert direct > 0.0
    assert inverse_kernel_prediction(spec, 7, 7) == 1.0
    with pytest.raises(IndexError):
        inverse_kernel_prediction(spec, 0, 5)


@pytest.mark.parametrize("alpha", [0.3, -0.3])
def test_kernel_envelope_tracks_dense_inverse(alpha):
    n = 128
    spec = InverseKernelSpec(alpha, n)
    inv = oracles.dense_inverse(autocov_seq(spec.hurst, n).gammas)
    rng = replicate_rng(9, 0)
    inside = 0
    trials = 60
    for _ in range(trials):
        i = int(rng.integers(1, n + 1))
        j = int(rng.integers(1, n + 1))
        ratio = abs(inv[i - 1, j - 1]) / inverse_kernel_prediction(spec, i, j)
        inside += 0.1 <= ratio <= 10.0
    assert inside >= 0.95 * trials


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_toeplitz_matrix_is_scipy_toeplitz(n):
    gam = autocov_seq(0.7, n).gammas
    assert np.array_equal(toeplitz_matrix(gam), scipy.linalg.toeplitz(gam))
