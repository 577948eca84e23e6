import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hurstbayes import moments
from hurstbayes.fgn import replicate_rng
from hurstbayes.moments import (MAX_ORDER, MomentTable, QuadFormInstance,
                                composition_coefficient, compositions_no_ones,
                                moment_bound_constant, moment_table,
                                psi_composition_representation, psi_direct,
                                theta_isserlis_oracle, theta_recursion,
                                trace_powers)


def random_instance(d: int, seed: int) -> QuadFormInstance:
    rng = replicate_rng(seed, d)
    b = rng.standard_normal((d, d))
    c = b @ b.T + d * np.eye(d)
    a = rng.standard_normal((d, d))
    return QuadFormInstance(a, c)


def test_instance_validation():
    with pytest.raises(ValueError):
        QuadFormInstance(np.eye(2), -np.eye(2))  # not positive definite
    with pytest.raises(ValueError):
        QuadFormInstance(np.eye(2), np.eye(3))
    inst = QuadFormInstance(np.array([[0.0, 2.0], [0.0, 0.0]]), np.eye(2))
    assert inst.a[0, 1] == inst.a[1, 0] == 1.0  # symmetrized


def random_stack(d: int, size: int, seed: int) -> tuple:
    """Raw (A, C) stacks: A not symmetric, C SPD plus a small asymmetric part."""
    rng = replicate_rng(seed, 1000 + d)
    b = rng.standard_normal((size, d, d))
    c = b @ np.swapaxes(b, -1, -2) + d * np.eye(d)
    a = rng.standard_normal((size, d, d))
    return a, c + 0.1 * rng.standard_normal((size, d, d))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_stacked_functions_match_per_instance_loop(d):
    a, c = random_stack(d, 5, d)
    stacked = QuadFormInstance(a, c)
    assert stacked.dim == d and stacked.a.shape == (5, d, d)
    r = trace_powers(stacked, 6)
    theta = theta_recursion(r, 6)
    psi = psi_direct(theta, r[:, 0], 6)
    psi_comp = psi_composition_representation(r, 6)
    table = moment_table(stacked, 6)
    oracle = {n: theta_isserlis_oracle(stacked, n) for n in range(6)}
    assert r.shape == psi.shape == psi_comp.shape == (5, 6)
    assert theta.shape == (5, 7)
    for i in range(5):
        one = QuadFormInstance(a[i], c[i])
        assert np.array_equal(stacked.a[i], one.a)
        assert np.array_equal(stacked.c[i], one.c)
        r_i = trace_powers(one, 6)
        theta_i = theta_recursion(r_i, 6)
        np.testing.assert_allclose(r[i], r_i, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(theta[i], theta_i, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(psi[i], psi_direct(theta_i, r_i[0], 6),
                                   rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(psi_comp[i],
                                   psi_composition_representation(r_i, 6),
                                   rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(table.psi[i], moment_table(one, 6).psi,
                                   rtol=1e-14, atol=1e-14)
        for n in range(6):
            single = theta_isserlis_oracle(one, n)
            assert isinstance(single, float)
            assert oracle[n][i] == pytest.approx(single, rel=1e-14, abs=0.0)
    assert all(oracle[n].shape == (5,) for n in range(6))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_stacked_oracle_matches_einsum_on_raw_stacks(d):
    # the raw stack reaches the cycle walk unsymmetrized
    a, c = random_stack(d, 3, 50 + d)
    raw = SimpleNamespace(a=a, c=c)
    for order in range(5):
        got = theta_isserlis_oracle(raw, order)
        ref = [oracles.isserlis_einsum_oracle(a[i], c[i], order) for i in range(3)]
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)


def test_stack_with_one_bad_member_is_rejected():
    a, c = random_stack(3, 4, 9)
    c = 0.5 * (c + np.swapaxes(c, -1, -2))
    c[2] = -np.eye(3)  # one member not positive definite
    with pytest.raises(ValueError):
        QuadFormInstance(a, c)
    with pytest.raises(ValueError):
        QuadFormInstance(a, c[:3])  # stack sizes differ
    with pytest.raises(ValueError):
        QuadFormInstance(a[:, :2, :2], c[:, :2, :])  # matrices not square
    with pytest.raises(ValueError):
        QuadFormInstance(a[:, :2, :2], c[:, :3, :3])  # sizes differ
    with pytest.raises(ValueError):
        QuadFormInstance(np.ones(3), np.ones(3))  # not a matrix
    c_nan = np.broadcast_to(np.eye(3), a.shape).copy()
    c_nan[1, 0, 0] = np.nan
    with pytest.raises(ValueError):
        QuadFormInstance(a, c_nan)


def test_trace_powers_match_direct():
    inst = random_instance(3, 11)
    m = inst.a @ inst.c
    r = trace_powers(inst, 4)
    for j in range(1, 5):
        assert r[j - 1] == pytest.approx(np.trace(np.linalg.matrix_power(m, j)),
                                         rel=1e-12)


def test_chi_square_two_central_moments():
    # <xi, I xi> with xi ~ N(0, I_2) is chi-square with 2 dof:
    # variance 4, third central moment 16, fourth 144
    inst = QuadFormInstance(np.eye(2), np.eye(2))
    r = trace_powers(inst, 4)
    theta = theta_recursion(r, 4)
    psi = psi_direct(theta, r[0], 4)
    assert psi[0] == pytest.approx(0.0, abs=1e-12)
    assert psi[1] == pytest.approx(4.0, rel=1e-14)
    assert psi[2] == pytest.approx(16.0, rel=1e-14)
    assert psi[3] == pytest.approx(144.0, rel=1e-14)


def test_low_order_closed_forms():
    # Psi(2) = 2 R_2 and Psi(3) = 8 R_3 for any instance
    inst = random_instance(4, 12)
    r = trace_powers(inst, 3)
    psi = psi_direct(theta_recursion(r, 3), r[0], 3)
    assert psi[1] == pytest.approx(2.0 * r[1], rel=1e-12)
    assert psi[2] == pytest.approx(8.0 * r[2], rel=1e-12)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_recursion_matches_pairing_oracle(seed, d):
    inst = random_instance(d, seed)
    r = trace_powers(inst, 5)
    theta = theta_recursion(r, 5)
    for order in range(1, 6):
        ref = theta_isserlis_oracle(inst, order)
        assert theta[order] == pytest.approx(ref, rel=1e-10), (d, order)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_pairing_oracle_matches_einsum_contraction(d):
    rng = replicate_rng(77, d)
    b = rng.standard_normal((d, d))
    c = b @ b.T + d * np.eye(d)
    a = rng.standard_normal((d, d))  # not symmetric
    symmetrized = QuadFormInstance(a, c)
    # the raw pair reaches the cycle walk unsymmetrized, so every transpose
    # the walk takes is exercised against the whole-network contraction
    raw = SimpleNamespace(a=a, c=c + 0.1 * rng.standard_normal((d, d)))
    for inst in (symmetrized, raw):
        for order in range(6):
            ref = oracles.isserlis_einsum_oracle(inst.a, inst.c, order)
            assert theta_isserlis_oracle(inst, order) == pytest.approx(
                ref, rel=1e-12), (d, order)


def test_pairing_oracle_is_independent_of_recursion(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("pairing oracle must not use the trace recursion")

    monkeypatch.setattr(moments, "trace_powers", refuse)
    monkeypatch.setattr(moments, "theta_recursion", refuse)
    inst = random_instance(3, 5)
    for order in range(6):
        theta_isserlis_oracle(inst, order)


@pytest.mark.parametrize("n", range(6))
def test_pairing_plan_counts_every_pairing_once(n):
    plan = moments._pairing_plan(n)
    assert plan.mult.sum() == math.prod(range(1, 2 * n, 2))  # (2n-1)!!
    # rebuild the grouping from the independent matching enumeration
    expected = {}
    for matching in oracles.perfect_matchings(tuple(range(2 * n))):
        key = tuple(sorted(moments._cycle_words(matching)))
        expected[key] = expected.get(key, 0) + 1
    words = [tuple(row) for k in plan.codes for row in plan.codes[k]]
    assert len(set(words)) == len(words)
    groups = {}
    for row, mult in zip(plan.index, plan.mult):
        key = tuple(sorted(words[i] for i in row if i < len(words)))
        groups[key] = groups.get(key, 0) + mult
    assert groups == expected
    assert len(groups) == len(plan.mult)


def test_pairing_plan_is_reused_per_order(monkeypatch):
    inst = random_instance(3, 6)
    warm = theta_isserlis_oracle(inst, 4)

    def refuse(*args, **kwargs):
        raise AssertionError("the order-4 plan must come from the cache")

    monkeypatch.setattr(moments, "_pairings", refuse)
    assert theta_isserlis_oracle(inst, 4) == warm


def test_pairing_oracle_order_capped():
    with pytest.raises(ValueError):
        theta_isserlis_oracle(random_instance(2, 0), 6)


@pytest.mark.parametrize("seed", range(4))
def test_direct_equals_composition_to_order_eight(seed):
    inst = random_instance(3, 100 + seed)
    r = trace_powers(inst, 8)
    psi_a = psi_direct(theta_recursion(r, 8), r[0], 8)
    psi_b = psi_composition_representation(r, 8)
    scale = np.maximum(1.0, np.abs(psi_a))
    assert np.max(np.abs(psi_a - psi_b) / scale) < 1e-10


def test_compositions_no_ones_enumeration():
    assert list(compositions_no_ones(2, 6)) == [(2, 4), (3, 3), (4, 2)]
    assert list(compositions_no_ones(1, 4)) == [(4,)]
    assert list(compositions_no_ones(3, 5)) == []
    # single-part coefficient gives the classical leading term (N-1)!
    assert composition_coefficient((5,)) == math.factorial(4)


def test_moment_bound_constants():
    # composition sum with every trace replaced by 1
    assert moment_bound_constant(2) == pytest.approx(2.0)
    assert moment_bound_constant(3) == pytest.approx(8.0)
    assert moment_bound_constant(4) == pytest.approx(60.0)


def test_bound_dominates_centered_moments():
    inst = random_instance(4, 13)
    c_half = np.linalg.cholesky(inst.c)
    core = c_half.T @ inst.a @ c_half
    frob = float(np.linalg.norm(core, "fro"))
    r = trace_powers(inst, 6)
    psi = psi_direct(theta_recursion(r, 6), r[0], 6)
    for big_n in (2, 4, 6):
        bound = moment_bound_constant(big_n) * frob ** big_n
        assert abs(psi[big_n - 1]) <= bound * (1.0 + 1e-12)


def test_moment_table_and_order_cap():
    table = moment_table(random_instance(2, 14), 6)
    assert isinstance(table, MomentTable)
    assert table.theta[0] == 1.0
    assert table.psi[0] == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(ValueError):
        moment_table(random_instance(2, 14), MAX_ORDER + 1)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10**6))
def test_property_recursion_equals_oracle(d, seed):
    inst = random_instance(d, seed)
    r = trace_powers(inst, 4)
    theta = theta_recursion(r, 4)
    for order in (2, 4):
        ref = theta_isserlis_oracle(inst, order)
        assert theta[order] == pytest.approx(ref, rel=1e-10)
