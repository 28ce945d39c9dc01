"""Roulette Wheel (fitness proportionate) selection (Goldberg, 1989).

Draws go through a cumulative distribution (CDF) that callers can build
once and reuse for every draw from the same distribution.  A draw is
``cdf.searchsorted(rng.random(count), side="right")`` over
``p.cumsum() / p.cumsum()[-1]``, which is exactly how
``numpy.random.Generator.choice(n, size, p=p)`` samples with
replacement: a prebuilt CDF consumes the same RNG values and returns the
same indices as one ``choice`` call per draw, without re-validating and
re-summing ``p`` every time.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

# Generator.choice's tolerance on sum(p) == 1.
_SUM_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def roulette_wheel_probabilities(scores: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Selection probabilities proportional to (shifted) fitness scores.

    Scores may be negative or all equal; they are shifted so the minimum
    maps to a small positive baseline, which keeps every gene selectable
    while still favouring higher fitness.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0:
        raise ValueError("scores must be a non-empty 1-D array")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    shifted = scores - scores.min()
    spread = shifted.max()
    if spread <= 0:
        return np.full(scores.size, 1.0 / scores.size)
    # baseline keeps the worst gene at a small but non-zero probability
    weights = (shifted / spread) ** (1.0 / temperature) + 1e-3
    return weights / weights.sum()


def probability_cdf(probabilities: np.ndarray) -> np.ndarray:
    """The sampling CDF of a probability vector, as ``Generator.choice``
    builds it, after the same checks ``choice`` makes: a ``ValueError``
    for NaN, negative or non-normalized probabilities."""
    p = np.asarray(probabilities, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probabilities must be a non-empty 1-D array")
    total = p.sum()
    if np.isnan(total):
        raise ValueError("probabilities contain NaN")
    if (p < 0).any():
        raise ValueError("probabilities are not non-negative")
    if abs(total - 1.0) > _SUM_ATOL:
        raise ValueError("probabilities do not sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def roulette_wheel_cdf(scores: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """The selection CDF of ``scores``; build it once per population and
    pass it to :func:`roulette_wheel_indices` for every draw."""
    return probability_cdf(roulette_wheel_probabilities(scores, temperature=temperature))


def roulette_wheel_indices(
    scores: np.ndarray,
    count: int,
    rng: np.random.Generator,
    temperature: float = 1.0,
    replace: bool = True,
    cdf: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Select ``count`` indices with probability proportional to fitness.

    ``cdf`` is ``roulette_wheel_cdf(scores, temperature)`` prebuilt by the
    caller; the draw is then identical to one without it.  Sampling
    without replacement ignores it.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if not replace:
        probabilities = roulette_wheel_probabilities(scores, temperature=temperature)
        return rng.choice(len(probabilities), size=count, replace=False, p=probabilities)
    if cdf is None:
        cdf = roulette_wheel_cdf(scores, temperature=temperature)
    return cdf.searchsorted(rng.random(count), side="right")
