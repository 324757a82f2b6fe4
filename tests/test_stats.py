import itertools

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from reprolab.errors import ConfigurationError, DegenerateDataError
from reprolab.stats import (
    CorrelationResult,
    _permutation_table,
    kendall_tau,
    pearson,
    permutation_pvalue,
    spearman,
)

from oracles import (
    kendall_tau_b_loops,
    pearson_fraction,
    permutation_pvalue_loop,
    spearman_rank_then_pearson,
)

COEFFICIENTS = {"pearson": pearson, "spearman": spearman, "kendall": kendall_tau}


class TestPearson:
    def test_perfect_linear(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-15)

    def test_perfect_anticorrelation(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-15)

    def test_matches_exact_rational_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 12))
            x = rng.normal(0, 2, n)
            y = rng.normal(0, 2, n)
            assert pearson(x, y) == pytest.approx(pearson_fraction(x, y), abs=1e-12)

    def test_constant_vector_degenerate(self):
        with pytest.raises(DegenerateDataError):
            pearson([1.0, 1.0, 1.0], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(ConfigurationError, match="n >= 3"):
            pearson([1, 2], [2, 1])

    @given(st.floats(0.1, 10), st.floats(-5, 5))
    @settings(max_examples=40, deadline=None)
    def test_positive_affine_invariance(self, a, b):
        x = np.array([0.3, -1.2, 2.5, 0.9, -0.4])
        y = np.array([1.1, 0.2, -0.7, 1.9, 0.4])
        assert pearson(a * x + b, y) == pytest.approx(pearson(x, y), abs=1e-9)

    def test_symmetry(self, rng):
        x, y = rng.normal(0, 1, 8), rng.normal(0, 1, 8)
        assert pearson(x, y) == pytest.approx(pearson(y, x), abs=1e-15)


class TestSpearman:
    def test_monotone_transform_gives_one(self):
        x = np.array([0.5, 2.0, -1.0, 3.5, 1.1])
        assert spearman(x, np.exp(x)) == pytest.approx(1.0, abs=1e-15)
        assert spearman(x, x ** 3) == pytest.approx(1.0, abs=1e-15)

    def test_hand_rank_example(self):
        assert spearman([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-15)

    def test_tie_ranks_averaged(self):
        # ranks of (1, 1, 2) are (1.5, 1.5, 3)
        got = spearman([1.0, 1.0, 2.0], [3.0, 4.0, 5.0])
        assert got == pytest.approx(spearman_rank_then_pearson([1, 1, 2], [3, 4, 5]), abs=1e-12)

    def test_matches_scipy(self, rng):
        for _ in range(20):
            n = int(rng.integers(4, 15))
            x = rng.integers(0, 6, n).astype(float)  # ties likely
            y = rng.normal(0, 1, n)
            if (x == x[0]).all():
                continue
            want = scipy.stats.spearmanr(x, y).statistic
            assert spearman(x, y) == pytest.approx(want, abs=1e-12)

    def test_fully_tied_degenerate(self):
        with pytest.raises(DegenerateDataError):
            spearman([2.0, 2.0, 2.0], [1, 2, 3])


class TestKendall:
    def test_identical_orderings(self):
        assert kendall_tau([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_reversed_orderings(self):
        assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_matches_pair_count_oracle_exactly(self, rng):
        for _ in range(25):
            n = int(rng.integers(3, 12))
            x = rng.integers(0, 5, n).astype(float)
            y = rng.integers(0, 5, n).astype(float)
            if (x == x[0]).all() or (y == y[0]).all():
                continue
            assert kendall_tau(x, y) == kendall_tau_b_loops(list(x), list(y))

    def test_matches_scipy_tau_b(self, rng):
        x = rng.normal(0, 1, 10)
        y = rng.normal(0, 1, 10)
        assert kendall_tau(x, y) == pytest.approx(
            scipy.stats.kendalltau(x, y).statistic, abs=1e-12)

    def test_fully_tied_degenerate(self):
        with pytest.raises(DegenerateDataError):
            kendall_tau([1.0, 1.0, 1.0], [1, 2, 3])

    def test_monotone_invariance(self, rng):
        x = rng.normal(0, 1, 9)
        y = rng.normal(0, 1, 9)
        assert kendall_tau(np.exp(x), y) == pytest.approx(kendall_tau(x, y), abs=1e-15)


class TestPermutationPValue:
    def test_identity_vectors_minimum_p(self):
        x = np.arange(10.0)
        res = permutation_pvalue(x, x.copy(), method="pearson", n_permutations=999, seed=5)
        assert res.p_value == pytest.approx(1.0 / 1000.0)
        assert res.coefficient == pytest.approx(1.0)

    def test_exhaustive_matches_enumeration_oracle(self, rng):
        x = rng.normal(0, 1, 5)
        y = rng.normal(0, 1, 5)
        res = permutation_pvalue(x, y, method="pearson", exhaustive=True, seed=0)
        assert res.n_permutations == 120
        observed = abs(pearson(x, y))
        count = sum(
            1 for perm in itertools.permutations(y)
            if abs(pearson(x, np.array(perm))) >= observed
        )
        assert res.p_value == pytest.approx(count / 120.0)

    def test_sampled_approximates_exhaustive(self, rng):
        x = rng.normal(0, 1, 6)
        y = x + rng.normal(0, 1.5, 6)
        exact = permutation_pvalue(x, y, exhaustive=True).p_value
        sampled = permutation_pvalue(x, y, n_permutations=20000, seed=3).p_value
        assert abs(sampled - exact) < 3 * np.sqrt(exact * (1 - exact) / 20000) + 1e-3

    def test_deterministic_given_seed(self, rng):
        x = rng.normal(0, 1, 12)
        y = rng.normal(0, 1, 12)
        a = permutation_pvalue(x, y, method="spearman", n_permutations=500, seed=42)
        b = permutation_pvalue(x, y, method="spearman", n_permutations=500, seed=42)
        assert a == b

    def test_false_positive_calibration(self):
        rng = np.random.default_rng(77)
        hits = 0
        trials = 200
        for _ in range(trials):
            x = rng.uniform(0, 1, 20)
            y = rng.uniform(0, 1, 20)
            res = permutation_pvalue(x, y, method="pearson", n_permutations=99, seed=1)
            if res.p_value <= 0.05:
                hits += 1
        assert 0.02 <= hits / trials <= 0.09

    def test_minimum_permutations_enforced(self):
        with pytest.raises(ConfigurationError, match="at least 99"):
            permutation_pvalue([1, 2, 3], [1, 2, 3], n_permutations=10)

    def test_unknown_method(self):
        with pytest.raises(ConfigurationError, match="unknown method"):
            permutation_pvalue([1, 2, 3], [3, 2, 1], method="distance")

    def test_result_fields(self):
        res = permutation_pvalue([1.0, 2, 3, 4], [2.0, 4, 5, 9], method="kendall",
                                 n_permutations=199, seed=9)
        assert isinstance(res, CorrelationResult)
        assert res.method == "kendall"
        assert res.n_permutations == 199 and res.seed == 9
        assert -1.0 <= res.coefficient <= 1.0
        assert 0.0 < res.p_value <= 1.0


class TestArrayPassesMatchLoop:
    """p-values of the array passes equal a loop of one coefficient call per
    permutation, compared with ==. Ties make permuted coefficients equal to the
    observed one, where rounding decides the count unless near-ties are
    re-checked with the scalar coefficient."""

    @staticmethod
    def _tied(n, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(60, 100, n) / 500  # RA-like values on a 1/500 grid
        x[1] = x[0]
        y = np.round(0.1 + 0.5 * x + rng.normal(0, 0.02, n), 3)
        return x, y

    @pytest.mark.parametrize("method", sorted(COEFFICIENTS))
    def test_sampled_on_tied_data(self, method):
        x, y = self._tied(24, 1)
        got = permutation_pvalue(x, y, method=method, n_permutations=999, seed=7)
        want = permutation_pvalue_loop(x, y, COEFFICIENTS[method], n_permutations=999, seed=7)
        assert got.p_value == want

    @pytest.mark.parametrize("method", sorted(COEFFICIENTS))
    def test_exhaustive_on_tied_data(self, method):
        x, y = self._tied(7, 2)
        got = permutation_pvalue(x, y, method=method, exhaustive=True)
        assert got.p_value == permutation_pvalue_loop(x, y, COEFFICIENTS[method])

    def test_exhaustive_n8_tied_x_needs_near_tie_recheck(self):
        # On this data the array pass alone rounds some tied permutations across
        # the observed coefficient; the scalar re-check restores the exact count.
        x = np.array([0.188, 0.188, 0.16, 0.14, 0.144, 0.122, 0.126, 0.12])
        y = np.array([0.121, 0.197, 0.177, 0.209, 0.16, 0.172, 0.216, 0.187])
        got = permutation_pvalue(x, y, method="pearson", exhaustive=True)
        assert got.n_permutations == 40320
        assert got.p_value == permutation_pvalue_loop(x, y, pearson)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_permutation_table_is_itertools_order(self, n):
        table = _permutation_table(n)
        assert np.array_equal(table, np.array(list(itertools.permutations(range(n)))))
        assert not table.flags.writeable and _permutation_table(n) is table

    @pytest.mark.parametrize("method, n", [("pearson", 5000), ("kendall", 200)])
    def test_sampled_across_blocks(self, rng, method, n):
        # Wide rows make the permutations span several blocks of the array pass.
        x = rng.integers(0, 50, n).astype(float)
        y = x + rng.normal(0, 40, n)
        got = permutation_pvalue(x, y, method=method, n_permutations=300, seed=4)
        want = permutation_pvalue_loop(x, y, COEFFICIENTS[method], n_permutations=300, seed=4)
        assert got.p_value == want
