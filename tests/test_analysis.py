"""Occupancy model: closed forms, independent recomputations, Monte Carlo.

The closed-form expectation is cross-checked two independent ways: against
a direct binomial-tail computation (per-prefix hit counts are Binomial(n,
P**-L), so E[layers] = P**L * P[hits >= 2]) and against simulation of
nothing but prefix cells (no trie involved).  The trie enters only in the
structural Monte Carlo, where traversal counts of live layers must land
inside the 3-standard-error band around the formula.
"""

import math
import random

import pytest

from prefixpq import PTrie, PTrieConfig
from prefixpq.analysis import (
    count_layers_per_level,
    expected_layers_at_level,
    layer_count_std_bound,
    monte_carlo_layer_counts,
    occupancy_distribution,
    prefix_collision_prob,
    prob_exact_occupancy,
)


def binomial_expected_layers(n: int, degree: int, level: int) -> float:
    """Independent recomputation via the binomial tail, exact arithmetic."""
    if level == 0:
        return 1.0 if n >= 2 else 0.0
    cells = degree**level
    # per-cell hit count ~ Binomial(n, 1/cells); use Fraction-free floats
    # on small cases only
    p = 1.0 / cells
    pmf0 = (1.0 - p) ** n
    pmf1 = n * p * (1.0 - p) ** (n - 1)
    return cells * (1.0 - pmf0 - pmf1)


class TestProbExactOccupancy:
    def test_known_point_value(self):
        # two keys, degree 16, one level: both land in one fixed cell
        # with probability 16**-2
        assert prob_exact_occupancy(2, 16, 1, 2) == pytest.approx(1 / 256)

    @pytest.mark.parametrize(
        "n,degree,level",
        [(0, 16, 1), (1, 16, 1), (5, 16, 1), (12, 4, 2), (30, 2, 3), (8, 256, 1)],
    )
    def test_distribution_sums_to_one(self, n, degree, level):
        total = sum(prob_exact_occupancy(n, degree, level, g) for g in range(n + 1))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_level_zero_degenerates_to_indicator(self):
        for n in range(5):
            for g in range(n + 1):
                expect = 1.0 if g == n else 0.0
                assert prob_exact_occupancy(n, 16, 0, g) == expect

    def test_matches_binomial_pmf(self):
        for n, degree, level in [(6, 4, 1), (10, 16, 1), (9, 2, 3)]:
            p = degree ** (-level)
            for g in range(n + 1):
                pmf = math.comb(n, g) * p**g * (1 - p) ** (n - g)
                assert prob_exact_occupancy(n, degree, level, g) == pytest.approx(pmf)

    def test_mc_agreement_on_one_cell(self):
        # simulate cell occupancy directly; no trie code involved
        n, degree, level, trials = 6, 4, 1, 40_000
        rng = random.Random(11)
        cells = degree**level
        hits = [0] * (n + 1)
        for _ in range(trials):
            got = sum(1 for _ in range(n) if rng.randrange(cells) == 0)
            hits[got] += 1
        for g in range(n + 1):
            p = prob_exact_occupancy(n, degree, level, g)
            se = math.sqrt(max(p * (1 - p), 1e-12) / trials)
            assert abs(hits[g] / trials - p) <= 4 * se + 1e-9

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            prob_exact_occupancy(-1, 16, 1, 0)
        with pytest.raises(ValueError):
            prob_exact_occupancy(5, 1, 1, 0)
        with pytest.raises(ValueError):
            prob_exact_occupancy(5, 16, -1, 0)
        with pytest.raises(ValueError):
            prob_exact_occupancy(5, 16, 1, 6)

    def test_direct_product_kept_below_float_overflow(self):
        # n = 1029 is the largest n whose binomials all fit a float: the
        # values are the plain product, bit for bit
        n, r = 1029, 16.0**-1
        for g in range(n + 1):
            direct = math.comb(n, g) * r**g * (1.0 - r) ** (n - g)
            assert prob_exact_occupancy(n, 16, 1, g) == direct

    @pytest.mark.parametrize("n", [1030, 100_000])
    def test_large_n_in_log_space(self, n):
        dist = occupancy_distribution(n, 16, 1)
        assert all(math.isfinite(p) and p >= 0.0 for p in dist)
        assert sum(dist) == pytest.approx(1.0, abs=1e-9)
        g = n // 16  # the mode; exact log of the big binomial as reference
        expect = math.exp(
            math.log(math.comb(n, g)) + g * math.log(1 / 16)
            + (n - g) * math.log1p(-1 / 16)
        )
        assert prob_exact_occupancy(n, 16, 1, g) == pytest.approx(expect, rel=1e-9)

    def test_occupancy_distribution_helper(self):
        dist = occupancy_distribution(4, 16, 1)
        assert len(dist) == 5
        assert sum(dist) == pytest.approx(1.0)


class TestExpectedLayers:
    def test_no_layers_below_two_keys(self):
        # the root is always allocated, so only the deeper levels are empty
        for n in (0, 1):
            assert expected_layers_at_level(n, 16, 0) == 1.0
            for level in range(1, 4):
                assert expected_layers_at_level(n, 16, level) == 0.0

    def test_root_exists_from_two_keys(self):
        for n in (2, 3, 100):
            assert expected_layers_at_level(n, 16, 0) == 1.0

    @pytest.mark.parametrize(
        "n,degree,level",
        [(2, 16, 1), (5, 4, 1), (16, 16, 2), (100, 16, 3), (7, 2, 4), (3, 256, 1)],
    )
    def test_matches_binomial_tail(self, n, degree, level):
        assert expected_layers_at_level(n, degree, level) == pytest.approx(
            binomial_expected_layers(n, degree, level), rel=1e-12
        )

    def test_two_keys_one_level_is_collision_probability(self):
        # two keys share a degree-16 top chunk with probability 1/16
        assert expected_layers_at_level(2, 16, 1) == pytest.approx(1 / 16)

    def test_deep_level_stays_accurate(self):
        # at r = 16**-7 the direct form cancels catastrophically; the
        # log1p path must stay close to the small-r expansion n(n-1)/2 * r
        n, degree, level = 4096, 16, 7
        r = degree ** (-level)
        approx = n * (n - 1) / 2 * r
        got = expected_layers_at_level(n, degree, level)
        assert got == pytest.approx(approx, rel=1e-3)

    def test_cell_simulation_agreement(self):
        # throw keys at cells directly and count 2+ collisions
        n, degree, level, trials = 12, 4, 2, 4_000
        rng = random.Random(5)
        cells = degree**level
        total = 0
        for _ in range(trials):
            counts = [0] * cells
            for _ in range(n):
                counts[rng.randrange(cells)] += 1
            total += sum(1 for c in counts if c >= 2)
        mean = total / trials
        expect = expected_layers_at_level(n, degree, level)
        band = 3 * layer_count_std_bound(n, degree, level) / math.sqrt(trials)
        assert abs(mean - expect) <= band + 1e-9

    def test_monotone_in_n(self):
        values = [expected_layers_at_level(n, 16, 2) for n in (4, 16, 64, 256)]
        assert values == sorted(values)


class TestStdBound:
    def test_zero_at_root(self):
        assert layer_count_std_bound(50, 16, 0) == 0.0

    def test_nonnegative_and_finite(self):
        for n, level in [(16, 1), (256, 3), (4096, 7)]:
            s = layer_count_std_bound(n, 16, level)
            assert 0.0 <= s < float("inf")

    def test_dominates_sample_sd(self):
        # the bound must not undercut reality: sample SD of the level-1
        # count across trials stays below it
        n, degree, level, trials = 64, 4, 1, 400
        rng = random.Random(9)
        cells = degree**level
        counts = []
        for _ in range(trials):
            cell_hits = [0] * cells
            for _ in range(n):
                cell_hits[rng.randrange(cells)] += 1
            counts.append(sum(1 for c in cell_hits if c >= 2))
        mean = sum(counts) / trials
        sample_sd = math.sqrt(sum((c - mean) ** 2 for c in counts) / (trials - 1))
        bound = layer_count_std_bound(n, degree, level)
        assert sample_sd <= bound * 1.25  # sampling noise allowance

    def test_collision_prob_matches_binomial(self):
        for n, degree, level in [(5, 4, 1), (40, 16, 2)]:
            p = degree ** (-level)
            direct = 1 - (1 - p) ** n - n * p * (1 - p) ** (n - 1)
            assert prefix_collision_prob(n, degree, level) == pytest.approx(direct)


class TestStructuralCounts:
    def test_handcrafted_layer_census(self):
        t = PTrie(PTrieConfig(16, 4))
        # two keys sharing 2 chunks -> layers at depths 0,1,2
        t.insert(0xAB10)
        t.insert(0xAB2F)
        assert count_layers_per_level(t) == [1, 1, 1, 0]
        # a third key far away adds no layer anywhere
        t.insert(0x1000)
        assert count_layers_per_level(t) == [1, 1, 1, 0]
        # drive one pair to the deepest level
        t.insert(0xAB21)
        assert count_layers_per_level(t) == [1, 1, 1, 1]

    def test_duplicates_add_no_layers(self):
        t = PTrie(PTrieConfig(16, 4))
        for _ in range(10):
            t.insert(0x1234)
        assert count_layers_per_level(t) == [1, 0, 0, 0]

    def test_monte_carlo_matches_model(self):
        obs = monte_carlo_layer_counts(64, PTrieConfig(32, 4), trials=300, seed=2)
        for lvl in range(8):
            band = 3 * obs.std_bound[lvl] / math.sqrt(obs.trials)
            diff = abs(obs.observed_mean[lvl] - obs.expected[lvl])
            assert diff <= band + 1e-6, (lvl, diff, band)

    def test_monte_carlo_total_with_sample_se(self):
        obs = monte_carlo_layer_counts(128, PTrieConfig(32, 4), trials=300, seed=4)
        totals = obs.observed_totals
        mean = sum(totals) / len(totals)
        var = sum((x - mean) ** 2 for x in totals) / (len(totals) - 1)
        se = math.sqrt(var / len(totals))
        assert abs(mean - obs.expected_total) <= 3 * se + 1e-6
