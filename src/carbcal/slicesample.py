"""Univariate slice sampling with stepping-out and shrinkage.

One transition draws an auxiliary level below the current log density,
expands an initial interval in width-sized steps until both ends leave the
slice (or a step/bound limit is hit), then samples uniformly inside,
shrinking on rejections.  Non-finite log densities at proposals are treated
as "outside the slice", never as errors: a NaN compares False with the level.
A variable is unbounded unless its configuration gives bounds.

``slice_sample`` advances one chain; ``slice_sample_array`` advances many
independent chains (one per coordinate of a vector) by the same kernel, with
one log-density call per pass over the coordinates still in flight.  The
coordinates may come in blocks, each drawing from its own generator: a
block then consumes its stream exactly as it would alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SliceConfig:
    """Tuning constants for one slice-sampled variable.

    width: initial interval width (same units as the variable).
    max_steps: cap on stepping-out expansions per side.
    bounds: hard support (lo, hi), unbounded by default; the interval is
    truncated there and no point outside is ever returned.

    For ``slice_sample_array``, ``width`` may also be an array with one
    entry per coordinate.
    """

    width: float | np.ndarray
    max_steps: int = 20
    bounds: tuple[float, float] = (-math.inf, math.inf)

    def __post_init__(self):
        if not np.all(np.asarray(self.width) > 0):
            raise ValueError("slice width must be > 0")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if not self.bounds[0] < self.bounds[1]:
            raise ValueError("bounds must satisfy lo < hi")


def slice_sample(log_density, current: float, cfg: SliceConfig, rng) -> float:
    """Draw the next state of a slice-sampling Markov chain.

    Parameters
    ----------
    log_density : callable
        Log of the (unnormalised) target density of one real variable.
    current : float
        Current state; must have finite log density and lie within bounds.
    cfg : SliceConfig
    rng : numpy.random.Generator

    Returns the new state, which always satisfies the slice condition
    ``log_density(new) > z`` for the auxiliary level ``z`` drawn internally,
    and always lies within ``cfg.bounds``.
    """
    lp0 = float(log_density(current))
    if not math.isfinite(lp0):
        raise ValueError(f"log density not finite at starting point {current!r}")
    lo, hi = cfg.bounds
    if not lo <= current <= hi:
        # an interval clipped to the bounds would not hold the start: shrinkage would never end
        raise ValueError(f"starting point {float(current)!r} outside bounds {cfg.bounds}")
    z = lp0 - rng.standard_exponential()

    width = cfg.width
    left = current - width * rng.random()
    right = left + width
    left = max(left, lo)
    right = min(right, hi)

    steps = cfg.max_steps
    while steps > 0 and left > lo and log_density(left) > z:
        left = max(left - width, lo)
        steps -= 1
    steps = cfg.max_steps
    while steps > 0 and right < hi and log_density(right) > z:
        right = min(right + width, hi)
        steps -= 1

    while True:
        proposal = left + rng.random() * (right - left)
        if log_density(proposal) > z:
            return proposal
        if proposal < current:
            left = proposal
        elif proposal > current:
            right = proposal
        else:
            # Interval shrank onto the current point, which is on the slice
            # by construction; can only happen through fp underflow.
            return current


def _block_uniforms(rngs, stops, active) -> np.ndarray:
    """Uniforms for the sorted coordinates ``active``, each block from its own generator.

    Block ``b`` holds the coordinates below ``stops[b]`` and at or above the
    stop before it; its generator draws one uniform per active coordinate of
    the block, and nothing when the block has none.
    """
    if len(rngs) == 1:
        return rngs[0].random(active.size)
    out = np.empty(active.size)
    start = 0
    for rng, stop in zip(rngs, np.searchsorted(active, stops).tolist()):
        if stop > start:
            rng.random(out=out[start:stop])
            start = stop
    return out


def slice_sample_array(log_density, current, cfg: SliceConfig, rng, blocks=None) -> np.ndarray:
    """One slice-sampling transition of each coordinate of ``current``.

    The coordinates are independent chains; each follows the kernel of
    :func:`slice_sample` (same per-side step cap, bounds, shrinkage toward
    the current point, NaN outside the slice), with its own width when
    ``cfg`` gives one per coordinate.

    Parameters
    ----------
    log_density : callable
        ``log_density(points, index)`` returns the log densities of the
        coordinates ``index`` (an integer array) at ``points`` (a float
        array of the same length).
    current : array_like
        Current states; each must have finite log density and lie within
        bounds.
    cfg : SliceConfig
    rng : numpy.random.Generator, or a sequence of them, one per block
    blocks : sequence of int, optional
        With a sequence of generators: the sizes of the consecutive blocks
        of coordinates they serve, in order.  Each generator first draws
        the exponentials, then the uniforms of its whole block, and then,
        in every shrinkage pass, one uniform per coordinate of its block
        still in flight, so a block's draws do not depend on the others.

    Returns the new states as a new array.
    """
    current = np.asarray(current, dtype=float)
    n = current.size
    if blocks is None:
        rngs, stops = [rng], [n]
    else:
        rngs, stops = list(rng), np.cumsum(blocks).tolist()
        if len(rngs) != len(stops) or (stops and stops[-1] != n):
            raise ValueError("need one generator per block, and blocks covering every coordinate")
    index = np.arange(n)
    lp0 = np.asarray(log_density(current, index), dtype=float)
    if not np.all(np.isfinite(lp0)):
        bad = int(np.argmin(np.isfinite(lp0)))
        raise ValueError(f"log density not finite at starting point {float(current[bad])!r}")
    lo, hi = cfg.bounds
    if n and not lo <= current.min() <= current.max() <= hi:
        # an interval clipped to the bounds would not hold its start: shrinkage would never end
        bad = float(current[~((lo <= current) & (current <= hi))][0])
        raise ValueError(f"starting point {bad!r} outside bounds {cfg.bounds}")
    expo = np.empty(n)
    offset = np.empty(n)
    first = 0
    for gen, stop in zip(rngs, stops):
        gen.standard_exponential(out=expo[first:stop])
        gen.random(out=offset[first:stop])
        first = stop
    z = lp0 - expo

    width = cfg.width
    per_width = np.ndim(width) > 0
    left = current - width * offset
    right = left + width
    np.maximum(left, lo, out=left)
    np.minimum(right, hi, out=right)

    # Stepping out: each pass evaluates every end still growing, both sides
    # in one call; an end stops at its first point off the slice, at the
    # bound, or after max_steps expansions.
    grow_left = index[left > lo]
    grow_right = index[right < hi]
    for _ in range(cfg.max_steps):
        n_left = grow_left.size
        if n_left + grow_right.size == 0:
            break
        which = np.concatenate([grow_left, grow_right])
        ends = np.concatenate([left[grow_left], right[grow_right]])
        inside = log_density(ends, which) > z[which]  # NaN compares False
        grow_left = grow_left[inside[:n_left]]
        grow_right = grow_right[inside[n_left:]]
        step_left = width[grow_left] if per_width else width
        step_right = width[grow_right] if per_width else width
        left[grow_left] = np.maximum(left[grow_left] - step_left, lo)
        right[grow_right] = np.minimum(right[grow_right] + step_right, hi)
        grow_left = grow_left[left[grow_left] > lo]
        grow_right = grow_right[right[grow_right] < hi]

    # Shrinkage: propose uniformly in each open interval; a rejected
    # proposal becomes the end on its side of the current point.  The
    # working arrays hold only the coordinates still in flight.
    new = current.copy()
    active, start = index, current
    while active.size:
        proposal = left + _block_uniforms(rngs, stops, active) * (right - left)
        accepted = log_density(proposal, active) > z
        new[active[accepted]] = proposal[accepted]
        below = proposal < start
        left = np.where(below, proposal, left)
        right = np.where(below, right, proposal)
        # A proposal equal to the start means the interval shrank onto the
        # start, which is on the slice by construction (fp underflow only);
        # such a coordinate keeps its current value.
        going = ~accepted & (proposal != start)
        active, start, z = active[going], start[going], z[going]
        left, right = left[going], right[going]
    return new
