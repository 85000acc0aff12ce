import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from webnav import metrics
from webnav.errors import DataError, StatisticsError


class TestHistogram:
    def test_ratio_two_example(self):
        hist = metrics.histogram([1, 1, 2, 4], ratio=2)
        assert hist.edges.tolist() == [1, 2, 4, 8]
        assert hist.counts.tolist() == [2, 1, 1]

    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(1)
        samples = rng.integers(1, 5000, size=2000)
        hist = metrics.histogram(samples)
        assert abs(float(np.sum(hist.densities * np.diff(hist.edges))) - 1.0) < 1e-9

    def test_single_value_single_bin(self):
        hist = metrics.histogram([7, 7, 7])
        assert hist.counts.sum() == 3
        assert (hist.counts > 0).sum() == 1

    def test_counts_conserved(self):
        samples = [1, 3, 9, 27, 81, 243, 1000]
        hist = metrics.histogram(samples)
        assert hist.total == len(samples)

    def test_mapping_input(self):
        # a page -> visits tally must not be read as sample -> multiplicity
        with pytest.raises(DataError, match=r"\.values\(\)"):
            metrics.histogram(Counter({1: 2, 2: 1, 4: 1}), ratio=2)

    def test_dict_values_input(self):
        visits = Counter({"a": 1, "b": 1, "c": 2, "d": 4})
        hist = metrics.histogram(visits.values(), ratio=2)
        assert hist.counts.tolist() == [2, 1, 1]

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            metrics.histogram([])

    def test_nonpositive_rejected(self):
        with pytest.raises(DataError):
            metrics.histogram([0, 1, 2])

    @given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=200))
    @settings(max_examples=200)
    def test_every_sample_lands_in_one_bin(self, samples):
        hist = metrics.histogram(samples)
        assert hist.total == len(samples)
        assert np.all(np.diff(hist.edges) > 0)
        assert hist.edges[-1] > max(samples)


class TestPowerLawFit:
    # expected values frozen from the generate-and-fit oracle (zeta draws
    # via numpy Generator.zipf, fixed seeds)

    def test_recovers_alpha_2_1_above_xmin_5(self):
        x = metrics.zipf_samples(2.1, 100_000, seed=4242)
        fit = metrics.fit_power_law(x, xmin=5)
        assert fit.alpha == pytest.approx(2.0925, abs=1e-3)
        assert abs(fit.alpha - 2.1) < 0.05

    def test_recovers_alpha_1_75_above_xmin_5(self):
        x = metrics.zipf_samples(1.75, 100_000, seed=171)
        fit = metrics.fit_power_law(x, xmin=5)
        assert abs(fit.alpha - 1.75) < 0.05

    def test_known_bias_at_xmin_1(self):
        # the continuity-corrected estimator sits ~0.25 low at xmin=1 for
        # alpha=2.1; characterize it so regressions are visible
        x = metrics.zipf_samples(2.1, 100_000, seed=4242)
        fit = metrics.fit_power_law(x, xmin=1)
        assert fit.alpha == pytest.approx(1.846, abs=0.01)
        assert fit.n_tail == 100_000

    def test_consistency_error_shrinks_with_n(self):
        errs = []
        for n in (1000, 10_000, 100_000):
            x = metrics.zipf_samples(2.1, n, seed=77)
            errs.append(abs(metrics.fit_power_law(x, 5).alpha - 2.1))
        assert errs[2] < errs[0]
        assert errs[2] < 0.01

    def test_stderr_formula(self):
        x = metrics.zipf_samples(2.1, 100_000, seed=4242)
        fit = metrics.fit_power_law(x, xmin=5)
        assert fit.stderr == pytest.approx((fit.alpha - 1) / math.sqrt(fit.n_tail))

    def test_degenerate_tail_rejected(self):
        with pytest.raises(StatisticsError):
            metrics.fit_power_law([4] * 50, xmin=1)

    def test_too_few_tail_samples_rejected(self):
        with pytest.raises(StatisticsError):
            metrics.fit_power_law([1, 2, 3, 4, 5, 6, 7, 8, 9], xmin=1)


class TestCcdf:
    def test_example(self):
        assert metrics.ccdf([1, 2, 2, 5]) == [(1, 1.0), (2, 0.75), (5, 0.25)]

    def test_singleton(self):
        assert metrics.ccdf([9]) == [(9, 1.0)]

    def test_starts_at_one_and_decreases(self):
        rng = np.random.default_rng(3)
        samples = rng.integers(1, 40, size=500)
        pairs = metrics.ccdf(samples)
        assert pairs[0] == (int(samples.min()), 1.0)
        probs = [p for _, p in pairs]
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_slope_matches_histogram_slope(self):
        # differentiating the CCDF on log-log axes recovers the density
        # exponent within 0.1 for synthetic power laws
        x = metrics.zipf_samples(2.1, 100_000, seed=11)
        pairs = [(v, p) for v, p in metrics.ccdf(x) if 10 <= v <= 1000]
        lv = np.log([v for v, _ in pairs])
        lp = np.log([p for _, p in pairs])
        ccdf_slope, _ = np.polyfit(lv, lp, 1)
        hist = metrics.histogram(x)
        centers = np.sqrt(hist.edges[:-1] * hist.edges[1:])
        keep = (centers >= 10) & (centers <= 1000) & (hist.densities > 0)
        hist_slope, _ = np.polyfit(np.log(centers[keep]),
                                   np.log(hist.densities[keep]), 1)
        assert abs((ccdf_slope - 1) - hist_slope) < 0.1


class TestKs:
    def test_identical_samples_zero(self):
        x = [1, 2, 2, 3, 10]
        assert metrics.ks_statistic(x, list(x)) == 0.0

    def test_disjoint_samples_one(self):
        assert metrics.ks_statistic([1, 2], [10, 11]) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        a = rng.integers(1, 30, 200)
        b = rng.integers(1, 40, 300)
        assert metrics.ks_statistic(a, b) == pytest.approx(metrics.ks_statistic(b, a))


class TestGeometricRatio:
    def test_recovers_ratio(self):
        rng = np.random.default_rng(303)
        lengths = rng.geometric(0.15, 200_000) - 1
        ratio = metrics.fit_geometric_ratio(lengths.tolist())
        assert ratio == pytest.approx(0.8489, abs=1e-3)
        assert abs(ratio - 0.85) < 0.01

    def test_needs_enough_support(self):
        with pytest.raises(StatisticsError):
            metrics.fit_geometric_ratio([1] * 100)
