"""Expected-occupancy model for the trie under uniform random keys.

With N keys drawn independently and uniformly from the full key space, the
chunk prefixes of length L are themselves uniform over ``P**L`` patterns
(``P`` the layer degree).  Two quantities describe the resulting shape:

* ``prob_exact_occupancy(n, degree, level, count)`` -- probability that
  exactly ``count`` of the N keys land in one fixed length-L prefix class.
* ``expected_layers_at_level(n, degree, level)`` -- expected number of
  layers in use at chunk depth L below the root (``level`` 0 is the root,
  which ``PTrie`` always allocates, so it counts 1 for every n, empty tries
  included).  A layer lives at depth L >= 1 exactly when at least two keys
  share its length-L prefix, so the expectation is ``P**L`` times the
  per-prefix probability of a 2+ collision, written in closed form below.

``monte_carlo_layer_counts`` cross-checks the model against the real
structure: it builds tries from random keys and counts live layers per
level by direct traversal.  ``layer_count_std_bound`` supplies a sound
standard-deviation bound for the per-level count (collision indicators of
distinct prefixes are negatively associated, so the sum's variance is at
most the sum of the indicator variances), which keeps the 3-standard-error
comparison meaningful even at deep levels where every trial observes zero.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass

from .ptrie import Layer, PTrie, PTrieConfig


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _check_common(n: int, degree: int, level: int) -> None:
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if degree < 2:
        raise ValueError(f"degree must be at least 2, got {degree}")
    if level < 0:
        raise ValueError(f"level must be nonnegative, got {level}")


def prob_exact_occupancy(n: int, degree: int, level: int, count: int) -> float:
    """P[g] = C(n, g) * P**(-gL) * (1 - P**(-L))**(n-g).

    Probability that a fixed length-``level`` prefix class receives exactly
    ``count`` of ``n`` uniform keys.  Sums to 1 over ``count`` = 0..n; at
    level 0 it degenerates to the indicator of ``count == n``.  When
    C(n, g) is too large for a float the product is taken in log space
    (``lgamma``/``log1p``) instead, which is also what keeps n around 1e5
    from computing huge exact binomials.
    """
    _check_common(n, degree, level)
    if count < 0 or count > n:
        raise ValueError(f"count must be in 0..{n}, got {count}")
    if level == 0:
        return 1.0 if count == n else 0.0
    r = float(degree) ** (-level)
    log_comb = math.lgamma(n + 1) - math.lgamma(count + 1) - math.lgamma(n - count + 1)
    # C(n, count) past the float range makes the direct product raise; the
    # margin keeps every coefficient that fits on the direct path
    if log_comb < _LOG_FLOAT_MAX + 1.0:
        try:
            return math.comb(n, count) * r**count * (1.0 - r) ** (n - count)
        except OverflowError:
            pass
    return math.exp(log_comb + count * math.log(r) + (n - count) * math.log1p(-r))


def expected_layers_at_level(n: int, degree: int, level: int) -> float:
    """E[layers at depth ``level``] = P**L (1-(1-P**-L)**n) - n (1-P**-L)**(n-1).

    Depth 0 is the root, which a ``PTrie`` allocates up front, so the
    expectation there is 1 for every n -- the count that
    ``count_layers_per_level`` observes.  Deeper levels hold ``P**L``
    prefix classes, each live with ``prefix_collision_prob``.
    """
    _check_common(n, degree, level)
    if level == 0:
        return 1.0
    if n < 2:
        return 0.0
    return float(degree) ** level * prefix_collision_prob(n, degree, level)


def prefix_collision_prob(n: int, degree: int, level: int) -> float:
    """P[one fixed length-``level`` prefix class receives 2+ of n keys]."""
    _check_common(n, degree, level)
    if n < 2:
        return 0.0
    if level == 0:
        return 1.0
    r = float(degree) ** (-level)
    log_miss = math.log1p(-r)
    # 1 - (1-r)**n through expm1, so the tiny difference survives
    return -math.expm1(n * log_miss) - n * r * math.exp((n - 1) * log_miss)


def layer_count_std_bound(n: int, degree: int, level: int) -> float:
    """Upper bound on the std-dev of the level-``level`` layer count.

    The count is a sum of ``P**L`` collision indicators whose pairwise
    covariances are nonpositive (occupancy counts of disjoint bins are
    negatively associated, and "2+ hits" is monotone in the count), so
    Var <= P**L * q * (1 - q) with q the per-prefix collision probability.
    """
    _check_common(n, degree, level)
    if level == 0:
        return 0.0
    q = prefix_collision_prob(n, degree, level)
    return math.sqrt(float(degree) ** level * q * (1.0 - q))


def count_layers_per_level(trie: PTrie) -> list[int]:
    """Live layers at each depth 0..depth_max-1 by direct traversal."""
    counts = [0] * trie.config.depth_max
    frontier = [trie._root]
    depth = 0
    while frontier:
        counts[depth] = len(frontier)
        frontier = [s for ly in frontier for s in ly.slots if type(s) is Layer]
        depth += 1
    return counts


@dataclass(frozen=True)
class LayerCountObservation:
    """Monte Carlo layer counts against the closed-form expectation."""

    n_keys: int
    degree: int
    trials: int
    expected: tuple[float, ...]
    observed_mean: tuple[float, ...]
    std_bound: tuple[float, ...]
    observed_totals: tuple[int, ...]

    @property
    def expected_total(self) -> float:
        return sum(self.expected)

    @property
    def observed_total_mean(self) -> float:
        return sum(self.observed_totals) / len(self.observed_totals)


def monte_carlo_layer_counts(
    n_keys: int,
    config: PTrieConfig | None = None,
    trials: int = 200,
    seed: int = 0,
) -> LayerCountObservation:
    """Build ``trials`` tries from fresh uniform keys and tally layers.

    Counting starts at the root (level index 0), matching the model's
    depth indexing.  Duplicate keys share a leaf and add no layers, which
    is also how the model treats colliding full-width keys.
    """
    cfg = config if config is not None else PTrieConfig()
    _check_common(n_keys, cfg.degree, 0)
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    # random.Random seeds with abs(seed); rejecting negatives keeps every
    # seed its own stream
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    rng = random.Random(seed)
    depth = cfg.depth_max
    sums = [0] * depth
    totals = []
    for _ in range(trials):
        trie = PTrie(cfg)
        for _ in range(n_keys):
            trie.insert(rng.getrandbits(cfg.word_bits))
        counts = count_layers_per_level(trie)
        for lvl, c in enumerate(counts):
            sums[lvl] += c
        totals.append(sum(counts))
    expected = tuple(
        expected_layers_at_level(n_keys, cfg.degree, lvl) for lvl in range(depth)
    )
    std_bound = tuple(
        layer_count_std_bound(n_keys, cfg.degree, lvl) for lvl in range(depth)
    )
    observed = tuple(s / trials for s in sums)
    return LayerCountObservation(
        n_keys=n_keys,
        degree=cfg.degree,
        trials=trials,
        expected=expected,
        observed_mean=observed,
        std_bound=std_bound,
        observed_totals=tuple(totals),
    )


def occupancy_distribution(n: int, degree: int, level: int) -> list[float]:
    """The full distribution P[g] for g = 0..n at one prefix level."""
    return [prob_exact_occupancy(n, degree, level, g) for g in range(n + 1)]
