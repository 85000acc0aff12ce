"""Distribution analysis: log-binned histograms, CCDFs, and power-law fits.

All functions are pure and operate on immutable sample collections, so they
are safe to call from any thread or process.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import DataError, StatisticsError

DEFAULT_BIN_RATIO = 10 ** 0.1  # ten bins per decade


def _as_array(samples, dtype=None) -> np.ndarray:
    """Coerce an iterable of numbers (a dict's .values() included) to a flat array."""
    if isinstance(samples, Mapping):
        raise DataError("samples must be numbers, not a mapping; "
                        "pass its .values()")
    if not isinstance(samples, (np.ndarray, list, tuple)):
        samples = list(samples)
    out = np.asarray(samples)
    return out.astype(dtype) if dtype is not None else out


@dataclass(frozen=True)
class LogBinnedHistogram:
    """Histogram over geometric bins [r^k, r^(k+1)) starting at 1.

    densities are count / (bin width * total), so sum(density * width) == 1.
    """

    edges: np.ndarray   # len = nbins + 1, strictly increasing, edges[0] == 1
    counts: np.ndarray  # len = nbins, integer
    densities: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def rows(self):
        """Yield (bin_lo, bin_hi, count, density) per bin."""
        for i in range(len(self.counts)):
            yield (float(self.edges[i]), float(self.edges[i + 1]),
                   int(self.counts[i]), float(self.densities[i]))


@dataclass(frozen=True)
class PowerLawFit:
    """Discrete power-law tail fit P(x) ~ x^-alpha for x >= xmin."""

    alpha: float
    xmin: int
    n_tail: int
    stderr: float


def histogram(samples, ratio: float = DEFAULT_BIN_RATIO) -> LogBinnedHistogram:
    """Bin positive integer samples into geometric bins of the given ratio.

    Args:
        samples: non-empty iterable of integers >= 1, such as a list or a
            tally's .values().
        ratio: bin edge ratio, > 1.

    Raises:
        DataError: empty input, samples < 1, or a Mapping.
    """
    x = _as_array(samples)
    if x.size == 0:
        raise DataError("histogram needs at least one sample")
    if x.min() < 1:
        raise DataError("histogram samples must be >= 1")
    if ratio <= 1:
        raise ValueError(f"bin ratio must exceed 1, got {ratio}")
    xmax = float(x.max())
    nbins = max(1, math.ceil(math.log(xmax * (1 + 1e-12), ratio) + 1e-9))
    edges = ratio ** np.arange(nbins + 1, dtype=np.float64)
    while edges[-1] <= xmax:  # guard against rounding at the top edge
        edges = np.append(edges, edges[-1] * ratio)
    counts, _ = np.histogram(x, bins=edges)
    widths = np.diff(edges)
    densities = counts / (widths * x.size)
    return LogBinnedHistogram(edges=edges, counts=counts, densities=densities)


def fit_power_law(samples, xmin: int) -> PowerLawFit:
    """Estimate the tail exponent of a discrete power law by maximum likelihood.

    Uses the continuity-corrected discrete estimator
    alpha = 1 + n / sum(ln(x_i / (xmin - 1/2))) over x_i >= xmin, with
    stderr = (alpha - 1) / sqrt(n). The correction is accurate for
    xmin >= ~5; at xmin = 1 it underestimates alpha by a few percent.

    Raises:
        StatisticsError: fewer than 10 tail samples, or a degenerate tail
            in which every sample equals the same value.
    """
    if xmin < 1:
        raise ValueError(f"xmin must be >= 1, got {xmin}")
    x = _as_array(samples, dtype=np.float64)
    tail = x[x >= xmin]
    n = int(tail.size)
    if n < 10:
        raise StatisticsError(f"need >= 10 samples above xmin={xmin}, got {n}")
    if float(tail.min()) == float(tail.max()):
        raise StatisticsError("degenerate tail: all samples equal")
    alpha = 1.0 + n / float(np.sum(np.log(tail / (xmin - 0.5))))
    stderr = (alpha - 1.0) / math.sqrt(n)
    return PowerLawFit(alpha=alpha, xmin=int(xmin), n_tail=n, stderr=stderr)


def ccdf(samples):
    """Complementary CDF P(X >= v) at each distinct sample value, ascending.

    The first entry is always (min, 1.0).
    """
    x = _as_array(samples)
    if x.size == 0:
        raise DataError("ccdf needs at least one sample")
    values, counts = np.unique(x, return_counts=True)
    # P(X >= v_k) = (n - number of samples below v_k) / n
    below = np.concatenate(([0], np.cumsum(counts)[:-1]))
    probs = (x.size - below) / x.size
    return [(v.item(), float(p)) for v, p in zip(values, probs)]


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: max |ECDF_a - ECDF_b|."""
    xa = np.sort(_as_array(a, dtype=np.float64))
    xb = np.sort(_as_array(b, dtype=np.float64))
    if xa.size == 0 or xb.size == 0:
        raise DataError("ks_statistic needs non-empty samples")
    grid = np.union1d(xa, xb)
    cdf_a = np.searchsorted(xa, grid, side="right") / xa.size
    cdf_b = np.searchsorted(xb, grid, side="right") / xb.size
    return float(np.abs(cdf_a - cdf_b).max())


def fit_geometric_ratio(lengths, min_count: int = 10) -> float:
    """Estimate the ratio q of a geometric distribution P(l) ~ q^l.

    Log-linear regression of ln(count) on l over the integer histogram,
    keeping only values whose count reaches min_count so the tail noise
    does not bias the slope.
    """
    tally = lengths if isinstance(lengths, Mapping) else Counter(lengths)
    if not tally:
        raise DataError("fit_geometric_ratio needs at least one length")
    pts = [(l, c) for l, c in tally.items() if c >= min_count]
    if len(pts) < 3:
        raise StatisticsError(f"need >= 3 histogram values with count >= {min_count}")
    ls = np.array([p[0] for p in pts], dtype=np.float64)
    logc = np.log([p[1] for p in pts])
    slope, _ = np.polyfit(ls, logc, 1)
    return float(math.exp(slope))


def zipf_samples(alpha: float, size: int, seed: int) -> np.ndarray:
    """Draw discrete power-law (zeta-distributed) integers, P(k) ~ k^-alpha.

    Test oracle for the fitter; requires alpha > 1.
    """
    if alpha <= 1:
        raise ValueError("zeta distribution needs alpha > 1")
    rng = np.random.default_rng(seed)
    return rng.zipf(alpha, size)
