"""Moments of Gaussian quadratic forms <xi, A xi> with xi ~ N(0, C).

Three independent routes are implemented and cross-checked in the tests:

* a trace-power recursion for the raw moments Theta(n) = E<xi, A xi>^n,
* direct Wick pairing enumeration (the oracle: the (2n-1)!! pairings are
  walked once per order into cycle words and grouped by their multiset of
  words; per instance each distinct word's trace is taken once, batched by
  word length),
* a composition-indexed closed form for the centred moments Psi(N),
  summing words R_{k_1} ... R_{k_m} over compositions of N with no part 1.

Everything is indexed by the traces R_j = Tr((A C)^j).  Falling factorials
and the composition coefficients are computed in exact integer arithmetic
(Python ints do not overflow), then converted to float; at the supported
depth N <= 12 the float conversion is exact.

Every function broadcasts over leading stack axes: an instance holds
matrices of shape (..., d, d), traces and moments carry the order on the
last axis, and a plain (d, d) instance is the unstacked case of the same
code.  A stacked result equals the per-instance one up to the last bits of
the oracle's weighted sum over pairing groups, whose rounding may depend on
the stack size.
"""
from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadFormInstance", "MomentTable", "trace_powers", "theta_recursion",
    "theta_isserlis_oracle", "psi_direct", "psi_composition_representation",
    "compositions_no_ones", "composition_coefficient", "moment_bound_constant",
    "moment_table",
]

MAX_ORDER = 12


@dataclass(frozen=True)
class QuadFormInstance:
    """Pair (A, C): symmetric weight matrix and SPD covariance, or a stack
    of such pairs with shape (..., d, d); every member must be SPD."""
    a: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        c = np.asarray(self.c, dtype=float)
        if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
            raise ValueError("weight matrix must be square")
        if c.shape != a.shape:
            raise ValueError("covariance shape must match the weight matrix")
        if not (np.isfinite(a).all() and np.isfinite(c).all()):
            raise ValueError("weight and covariance entries must be finite")
        a = 0.5 * (a + np.swapaxes(a, -1, -2))
        c = 0.5 * (c + np.swapaxes(c, -1, -2))
        try:
            np.linalg.cholesky(c)
        except np.linalg.LinAlgError as exc:
            raise ValueError("covariance must be positive definite") from exc
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)

    @property
    def dim(self) -> int:
        return self.a.shape[-1]


def _check_order(n_max: int):
    if not (1 <= n_max <= MAX_ORDER):
        raise ValueError(f"moment order must lie in 1..{MAX_ORDER}")


def trace_powers(inst: QuadFormInstance, n_max: int) -> np.ndarray:
    """Traces R_j = Tr((A C)^j) for j = 1..n_max, shape (..., n_max)
    (index 0 holds R_1)."""
    _check_order(n_max)
    m = inst.a @ inst.c
    out = np.empty(m.shape[:-2] + (n_max,))
    p = m
    out[..., 0] = np.trace(p, axis1=-2, axis2=-1)
    for j in range(1, n_max):
        p = p @ m
        out[..., j] = np.trace(p, axis1=-2, axis2=-1)
    return out


def _falling(n: int, k: int) -> int:
    # (n)_k = n (n-1) ... (n-k+1), exact
    return math.prod(range(n - k + 1, n + 1))


def _check_last_axis(x: np.ndarray, length: int, what: str):
    if x.ndim == 0 or x.shape[-1] < length:
        raise ValueError(f"need {what} up to order n_max")


def theta_recursion(r: np.ndarray, n_max: int) -> np.ndarray:
    """Raw moments Theta(0..n_max) from the traces (order on the last axis)
    via Theta(n) = sum_j 2^{j-1} (n-1)_{j-1} R_j Theta(n-j)."""
    _check_order(n_max)
    r = np.asarray(r, dtype=float)
    _check_last_axis(r, n_max, "traces")
    theta = np.empty(r.shape[:-1] + (n_max + 1,))
    theta[..., 0] = 1.0
    for n in range(1, n_max + 1):
        acc = 0.0
        for j in range(1, n + 1):
            acc = acc + ((2.0 ** (j - 1)) * float(_falling(n - 1, j - 1))
                         * r[..., j - 1] * theta[..., n - j])
        theta[..., n] = acc
    return theta


def _pairings(slots):
    if not slots:
        yield ()
        return
    first = slots[0]
    for idx in range(1, len(slots)):
        partner = slots[idx]
        rest = slots[1:idx] + slots[idx + 1:]
        for tail in _pairings(rest):
            yield ((first, partner),) + tail


def _cycle_words(matching) -> list:
    """The cycles of one pairing's network, each as the word of link codes
    its walk crosses.

    Slots 2t and 2t + 1 carry the t-th factor's A edge and the matching adds
    one C edge per slot, so the network is a disjoint union of even cycles.
    Each link is A C, and its code 2 ta + tc records whether the walk crosses
    the A (C) edge against slot order, so that edge enters transposed and the
    value does not rely on symmetry.
    """
    partner = {}
    for p, q in matching:
        partner[p], partner[q] = q, p
    done = [False] * len(partner)
    words = []
    for start in range(0, len(partner), 2):
        if done[start]:
            continue
        word = []
        slot = start
        while True:
            out = slot ^ 1
            done[slot] = done[out] = True
            nxt = partner[out]
            word.append(2 * (slot > out) + (out > nxt))
            slot = nxt
            if slot == start:
                break
        words.append(tuple(word))
    return words


@dataclass(frozen=True)
class _PairingPlan:
    """The combinatorics of order n, independent of (A, C).

    ``codes[k]`` stacks the distinct cycle words of length k, one row each,
    in increasing k; the traces of all words, in that order, fill a vector
    with one trailing 1.  Row g of ``index`` names the cycles of the
    g-th group of pairings in that vector (padded with the trailing 1), and
    ``mult[g]`` counts the pairings in the group.
    """
    codes: dict
    index: np.ndarray
    mult: np.ndarray


@functools.lru_cache(maxsize=None)
def _pairing_plan(n: int) -> _PairingPlan:
    groups = Counter(tuple(sorted(_cycle_words(matching)))
                     for matching in _pairings(tuple(range(2 * n))))
    words = sorted({w for key in groups for w in key}, key=lambda w: (len(w), w))
    position = {w: i for i, w in enumerate(words)}
    codes = {}
    for w in words:
        codes.setdefault(len(w), []).append(w)
    codes = {k: np.array(rows, dtype=np.intp) for k, rows in codes.items()}
    index = np.full((len(groups), n), len(words), dtype=np.intp)
    for g, key in enumerate(groups):
        index[g, :len(key)] = [position[w] for w in key]
    mult = np.array(list(groups.values()), dtype=float)
    return _PairingPlan(codes, index, mult)


def theta_isserlis_oracle(inst: QuadFormInstance, n: int) -> float | np.ndarray:
    """E<xi, A xi>^n by direct Wick pairing of the 2n Gaussian factors: a
    float for one instance, an array of the stack's shape for a stack.

    The (2n-1)!! pairings are walked once per order into their cycle words
    and grouped by the multiset of words (cached per n).  Each distinct
    word's trace is taken once per instance, in one chain of matrix products
    per word length batched over the words and the stack, and the groups are
    summed with their multiplicities; the pairing count caps n at 5.  This
    is the reference the recursion is validated against and shares no code
    with it.
    """
    if not (0 <= n <= 5):
        raise ValueError("pairing oracle supports n <= 5 only")
    a, c = inst.a, inst.c
    stack = a.shape[:-2]
    if n == 0:
        return 1.0 if not stack else np.ones(stack)
    plan = _pairing_plan(n)
    at, ct = np.swapaxes(a, -1, -2), np.swapaxes(c, -1, -2)
    # link codes index axis -3: (..., 4, d, d)
    links = np.stack([a @ c, a @ ct, at @ c, at @ ct], axis=-3)
    traces = []
    for k, words in plan.codes.items():
        chain = links.take(words[:, 0], axis=-3)
        for j in range(1, k):
            chain = chain @ links.take(words[:, j], axis=-3)
        traces.append(np.trace(chain, axis1=-2, axis2=-1))
    traces = np.concatenate(traces + [np.ones(stack + (1,))], axis=-1)
    value = traces[..., plan.index].prod(axis=-1) @ plan.mult
    return float(value) if not stack else value


def psi_direct(theta: np.ndarray, r1: float | np.ndarray, n_max: int) -> np.ndarray:
    """Centred moments Psi(1..n_max) = E(<xi,Axi> - R_1)^N by binomial
    inversion of the raw moments (order on the last axis of ``theta``;
    ``r1`` has the stack's shape)."""
    _check_order(n_max)
    theta = np.asarray(theta, dtype=float)
    r1 = np.asarray(r1, dtype=float)
    _check_last_axis(theta, n_max + 1, "raw moments")
    psi = np.empty(np.broadcast_shapes(theta.shape[:-1], r1.shape) + (n_max,))
    for big_n in range(1, n_max + 1):
        acc = 0.0
        for k in range(big_n + 1):
            acc = acc + (math.comb(big_n, k) * (-1.0) ** (big_n - k)
                         * theta[..., k] * r1 ** (big_n - k))
        psi[..., big_n - 1] = acc
    return psi


def compositions_no_ones(m: int, total: int):
    """Compositions of ``total`` into ``m`` ordered parts, every part >= 2."""
    if m < 1 or total < 2 * m:
        return
    if m == 1:
        yield (total,)
        return
    # place m-1 internal cut points in the reduced problem total - m (parts >= 1)
    for head in range(2, total - 2 * (m - 1) + 1):
        for tail in compositions_no_ones(m - 1, total - head):
            yield (head,) + tail


def composition_coefficient(k: tuple[int, ...]) -> float:
    """Weight c(k) of the word R_{k_1}..R_{k_m} in the centred-moment
    expansion: (N-1)! / prod_{j=2}^m (N - s_{j-1}) with partial sums s_j."""
    total = sum(k)
    denom = 1
    s = 0
    for part in k[:-1]:
        s += part
        denom *= total - s
    return math.factorial(total - 1) / denom


def psi_composition_representation(r: np.ndarray, n_max: int) -> np.ndarray:
    """Centred moments Psi(1..n_max) summed over compositions with no part 1
    (order on the last axis of ``r``): Psi(N) = sum_m 2^{N-m} sum_{k} R^k c(k)."""
    _check_order(n_max)
    r = np.asarray(r, dtype=float)
    _check_last_axis(r, n_max, "traces")
    psi = np.zeros(r.shape[:-1] + (n_max,))
    for big_n in range(1, n_max + 1):
        acc = 0.0
        for m in range(1, big_n // 2 + 1):
            scale = 2.0 ** (big_n - m)
            for k in compositions_no_ones(m, big_n):
                word = math.prod(r[..., part - 1] for part in k)
                acc = acc + scale * word * composition_coefficient(k)
        psi[..., big_n - 1] = acc
    return psi


def moment_bound_constant(big_n: int) -> float:
    """Constant K(N) with |Psi(N)| <= K(N) * ||C^{1/2} A C^{1/2}||_F^N,
    obtained from the composition representation with every |R^k| bounded by
    the Frobenius power (computed, not assumed)."""
    _check_order(big_n)
    acc = 0.0
    for m in range(1, big_n // 2 + 1):
        scale = 2.0 ** (big_n - m)
        for k in compositions_no_ones(m, big_n):
            acc += scale * composition_coefficient(k)
    return acc


@dataclass(frozen=True)
class MomentTable:
    """Traces, raw moments, and centred moments of one instance or of a
    stack (order on the last axis)."""
    r: np.ndarray
    theta: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        if (self.psi.shape != self.r.shape
                or self.theta.shape != self.r.shape[:-1] + (self.r.shape[-1] + 1,)):
            raise ValueError("inconsistent table lengths")
        if np.any(self.theta[..., 0] != 1.0):
            raise ValueError("Theta(0) must be 1")
        if np.any(np.abs(self.psi[..., 0])
                  > 1e-9 * np.maximum(1.0, np.abs(self.r[..., 0]))):
            raise ValueError("Psi(1) must vanish")


def moment_table(inst: QuadFormInstance, n_max: int) -> MomentTable:
    r = trace_powers(inst, n_max)
    theta = theta_recursion(r, n_max)
    psi = psi_direct(theta, r[..., 0], n_max)
    return MomentTable(r, theta, psi)
