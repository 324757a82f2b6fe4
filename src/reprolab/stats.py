"""Correlation coefficients and seeded permutation tests.

Monte-Carlo p-values use the add-one estimator (count + 1) / (P + 1), which
never reports zero; exhaustive enumeration over all n! permutations reports
the exact count / n! instead (the identity permutation guarantees p > 0).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateDataError


@dataclass
class CorrelationResult:
    method: str
    coefficient: float
    p_value: float
    n_permutations: int
    seed: int


def _validate(x, y, method: str) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or len(x) != len(y):
        raise ConfigurationError(f"{method} needs two equal-length vectors")
    if len(x) < 3:
        raise ConfigurationError(f"{method} needs n >= 3, got {len(x)}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ConfigurationError(f"{method} needs finite values")
    return x, y


def pearson(x, y) -> float:
    """Sample product-moment correlation."""
    x, y = _validate(x, y, "pearson")
    cx, cy = x - x.mean(), y - y.mean()
    ssx, ssy = float(cx @ cx), float(cy @ cy)
    if ssx == 0.0 or ssy == 0.0:
        raise DegenerateDataError("pearson is undefined for a constant vector")
    return float(cx @ cy) / math.sqrt(ssx * ssy)


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks; ties share the mean of their rank span."""
    order = np.argsort(v, kind="stable")
    ranks = np.empty(len(v))
    sorted_v = v[order]
    i = 0
    while i < len(v):
        j = i
        while j + 1 < len(v) and sorted_v[j + 1] == sorted_v[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(x, y) -> float:
    """Pearson correlation of average-ranked data."""
    x, y = _validate(x, y, "spearman")
    rx, ry = _average_ranks(x), _average_ranks(y)
    if (rx == rx[0]).all() or (ry == ry[0]).all():
        raise DegenerateDataError("spearman is undefined for a fully tied vector")
    return pearson(rx, ry)


def kendall_tau(x, y) -> float:
    """Tie-corrected tau-b via pair counting."""
    x, y = _validate(x, y, "kendall")
    dx = np.sign(x[:, None] - x[None, :])
    dy = np.sign(y[:, None] - y[None, :])
    upper = np.triu_indices(len(x), k=1)
    s = float((dx[upper] * dy[upper]).sum())
    n0 = len(x) * (len(x) - 1) / 2.0
    n1 = n0 - float(np.abs(dx[upper]).sum())
    n2 = n0 - float(np.abs(dy[upper]).sum())
    if n0 == n1 or n0 == n2:
        raise DegenerateDataError("kendall tau is undefined for a fully tied vector")
    return s / math.sqrt((n0 - n1) * (n0 - n2))


_METHODS = {"pearson": pearson, "spearman": spearman, "kendall": kendall_tau}

# Permuted coefficients are evaluated in blocks of about this many array elements.
_BLOCK_ELEMENTS = 1 << 20
# A permuted |coefficient| this close to the observed one is decided by the scalar
# coefficient function, so every p-value equals that of a loop over permutations.
# Ties are real: permuting data with repeated values reproduces the observed
# coefficient, and an array pass may round it differently in the last bit.
_NEAR_TIE = 1e-9


def _pearson_rows(x: np.ndarray):
    """Kernel: rows of permuted y values (B, n) -> Pearson coefficient per row."""
    cx = x - x.mean()
    ssx = float(cx @ cx)

    def rows(ys: np.ndarray) -> np.ndarray:
        cy = ys - ys.mean(axis=1, keepdims=True)
        return (cy @ cx) / np.sqrt(ssx * np.einsum("ij,ij->i", cy, cy))

    return rows


def _row_kernel(method: str, x: np.ndarray, y: np.ndarray):
    """(kernel, width): kernel maps permutation rows (B, n) to the coefficients
    of (x, y[row]); width is the number of array elements one row costs."""
    if method == "pearson":
        rows = _pearson_rows(x)
        return (lambda perms: rows(y[perms])), len(x)
    if method == "spearman":
        # Average ranks are permutation-equivariant: ranks of y[p] are ranks(y)[p].
        rows = _pearson_rows(_average_ranks(x))
        ry = _average_ranks(y)
        return (lambda perms: rows(ry[perms])), len(x)
    i, j = np.triu_indices(len(x), k=1)
    dx = np.sign(x[i] - x[j])
    sy = np.sign(y[:, None] - y[None, :])
    # Untied pair counts do not change under permutation.
    denominator = math.sqrt(float(np.abs(dx).sum()) * float(np.abs(sy[i, j]).sum()))
    return (lambda perms: (sy[perms[:, i], perms[:, j]] @ dx) / denominator), len(i)


@functools.cache
def _permutation_table(n: int) -> np.ndarray:
    """All n! permutations of range(n), n >= 1, as read-only rows in
    lexicographic order (the order of itertools.permutations)."""
    table = np.zeros((1, 1), dtype=np.int64)
    for m in range(2, n + 1):
        # Permutations of range(m) starting with i are i followed by those of
        # range(m - 1), relabelled onto range(m) without i: j -> j + (j >= i).
        rest = np.arange(m - 1)
        relabel = rest + (rest >= np.arange(m)[:, None])
        table = np.column_stack([np.repeat(np.arange(m), len(table)),
                                 relabel[:, table].reshape(-1, m - 1)])
    table.flags.writeable = False
    return table


def _count_extreme(fn, kernel, x, y, perms: np.ndarray, threshold: float) -> int:
    """Rows of ``perms`` whose |coefficient| reaches ``threshold``."""
    extreme = np.abs(kernel(perms))
    near = np.abs(extreme - threshold) <= _NEAR_TIE
    count = int((extreme[~near] >= threshold).sum())
    for perm in perms[near]:
        count += int(abs(fn(x, y[perm])) >= threshold)
    return count


def permutation_pvalue(x, y, method: str = "pearson", n_permutations: int = 10000,
                       seed: int = 0, exhaustive: bool = False) -> CorrelationResult:
    """Two-sided permutation test of the chosen coefficient, permuting y.

    Sampled permutations are drawn from a generator seeded with ``seed``, so
    results are reproducible; ``exhaustive`` enumerates all n! permutations
    (n <= 8) and reports the exact p-value. Permuted coefficients are computed
    in array passes over blocks of permutations; the p-value equals that of
    evaluating the coefficient function once per permutation.
    """
    if method not in _METHODS:
        raise ConfigurationError(f"unknown method {method!r}; choose from {sorted(_METHODS)}")
    if seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed!r}")
    fn = _METHODS[method]
    x, y = _validate(x, y, method)
    observed = fn(x, y)
    threshold = abs(observed)
    kernel, width = _row_kernel(method, x, y)
    block = max(1, _BLOCK_ELEMENTS // width)
    n = len(x)

    if exhaustive:
        if n > 8:
            raise ConfigurationError(f"exhaustive enumeration limited to n <= 8, got {n}")
        perms = _permutation_table(n)
        count = sum(_count_extreme(fn, kernel, x, y, perms[start:start + block], threshold)
                    for start in range(0, len(perms), block))
        return CorrelationResult(method, observed, count / len(perms), len(perms), seed)

    if n_permutations < 99:
        raise ConfigurationError(f"need at least 99 permutations, got {n_permutations}")
    rng = np.random.default_rng([int(seed), 0xC0])
    count = 0
    for start in range(0, n_permutations, block):
        # Row by row, this draws the same stream as successive rng.permutation(y).
        rows = min(block, n_permutations - start)
        perms = rng.permuted(np.tile(np.arange(n), (rows, 1)), axis=1)
        count += _count_extreme(fn, kernel, x, y, perms, threshold)
    return CorrelationResult(
        method, observed, (count + 1) / (n_permutations + 1), n_permutations, seed
    )
