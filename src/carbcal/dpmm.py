"""Dirichlet-process mixture machinery and the Gibbs chain over it.

The sampler state couples each determination's calendar age to a cluster of
a normal mixture whose weights carry a stick-breaking prior.  One sweep
updates, in order: every calendar age by slice sampling its conditional;
the mixture (either marginal-weights reallocation with explicit cluster
parameters, or stick weights plus slice-truncated reallocation); every
cluster's mean/precision from the conjugate normal-gamma conditional; the
concentration by Metropolis-Hastings; and the overall cluster centring by
an exact normal draw.

Marginal-weights ("polya") reallocation is sequential over dates: each
label is drawn given all the others.  One ``polya_reallocate`` call makes
that pass.  What no label move changes is computed once per pass: each
date's quadratic term against each cluster, as one table, and each date's
new-cluster term.  Per date, only the count terms of the cluster a date
leaves and the one it joins are redone.  An emptied cluster keeps its slot
until one compaction ends the pass; an opened one adds its column to the
table for the dates after its first member.

``run_chains`` advances independent chains in lockstep: a batch's chains
share one run length and one step cap, their ages live in one array, and one
age update per sweep slice-samples it, each chain's dates drawing from that
chain's own generator; every other step runs per chain.  A chain's draws are
therefore the same in any batch, and ``run_chain`` is the batch of one.

Gamma draws are floored at the smallest normal float: a draw of shape far
below one, as from a vague prior, would otherwise underflow to zero.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import asdict, dataclass, field
from itertools import accumulate
from operator import sub
from pathlib import Path

import numpy as np

from carbcal.calcurve import CalibrationCurve
from carbcal.calibrate import (
    LOG_2PI,
    Hyperparameters,
    check_memory,
    log_likelihood,
    map_estimates,
    write_csv,
    write_json,
)
from carbcal.errors import DataError
from carbcal.slicesample import SliceConfig, slice_sample_array

_MAX_STICKS = 100_000  # safety valve for the stick-extension loop

SAMPLERS = ("polya", "walker")


@dataclass
class DpmmState:
    """Full sampler state; mutated in place by the update operations.

    In a lockstep batch ``theta`` is a view of the batch's ages: never rebind it.
    """

    theta: np.ndarray   # (n,) calendar ages
    c: np.ndarray       # (n,) cluster labels into the arrays below
    phi: np.ndarray     # (k,) cluster means
    tau: np.ndarray     # (k,) cluster precisions
    w: np.ndarray       # (k,) stick weights; empty for the polya variant
    alpha: float
    mu_phi: float
    # Unbroken stick mass, maintained as the running product of (1 - v) so
    # that represented weights plus remainder total one in the stick algebra.
    w_remainder: float = 1.0

    @property
    def n_clusters(self) -> int:
        return len(self.phi)

    def occupancy(self) -> np.ndarray:
        """Member count per represented cluster."""
        return np.bincount(self.c, minlength=self.n_clusters)

    def validate(self, curve: CalibrationCurve | None = None) -> None:
        if len(self.c) != len(self.theta):
            raise AssertionError("label and age vectors differ in length")
        if self.n_clusters and (self.c.min() < 0 or self.c.max() >= self.n_clusters):
            raise AssertionError("cluster label out of range")
        if np.any(self.tau <= 0):
            raise AssertionError("non-positive cluster precision")
        if len(self.w) and (np.any(self.w <= 0) or self.w.sum() >= 1.0 + 1e-12):
            raise AssertionError("stick weights outside (0, 1)")
        if not self.alpha > 0:
            raise AssertionError("alpha must be positive")
        if curve is not None:
            lo, hi = curve.support
            if np.any(self.theta < lo) or np.any(self.theta > hi):
                raise AssertionError("calendar age outside curve support")


def check_chain_length(n_iter: int, n_burn: int, thin: int) -> None:
    """Raise ``DataError``, naming the CLI's options, unless the run stores a sample."""
    if not 0 <= n_burn < n_iter:
        raise DataError(f"--burn {n_burn} must be at least 0 and below --iters {n_iter}")
    if thin < 1:
        raise DataError(f"--thin {thin} must be at least 1")
    if (n_iter - n_burn) // thin < 1:
        raise DataError(
            f"--thin {thin} > --iters {n_iter} - --burn {n_burn}: no sample would be stored"
        )


@dataclass(frozen=True)
class ChainConfig:
    """Run-length, sampler variant, seed, and priors for one chain."""

    n_iter: int
    n_burn: int
    thin: int
    sampler: str
    seed: int
    hyper: Hyperparameters

    def __post_init__(self):
        if self.sampler not in SAMPLERS:
            raise DataError(f"unknown sampler {self.sampler!r}; use 'polya' or 'walker'")
        check_chain_length(self.n_iter, self.n_burn, self.thin)

    @property
    def n_stored(self) -> int:
        return (self.n_iter - self.n_burn) // self.thin


@dataclass
class ClusterSample:
    """Mixture snapshot kept for one stored iteration: each cluster's mean,
    precision and date count, the stick weights (``None`` for polya), the
    concentration and the centring.  The dates' labels are not kept."""

    phi: np.ndarray
    tau: np.ndarray
    counts: np.ndarray
    w: np.ndarray | None
    alpha: float
    mu_phi: float


@dataclass
class PosteriorSamples:
    """Thinned chain output: age draws plus mixture snapshots."""

    theta: np.ndarray               # (n_stored, n_obs)
    clusters: list[ClusterSample]
    config: ChainConfig
    det_ids: list[str]
    alpha_accept_rate: float = field(default=float("nan"), compare=False)

    @property
    def n_stored(self) -> int:
        return self.theta.shape[0]

    def save(self, directory) -> None:
        """Serialise to a directory: theta.csv, clusters.jsonl, config.json."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        write_csv(directory / "theta.csv", self.det_ids, self.theta)
        with open(directory / "clusters.jsonl", "w", encoding="utf-8") as fh:
            for snap in self.clusters:
                record = {
                    k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(snap).items()
                }
                fh.write(json.dumps(record) + "\n")
        cfg = asdict(self.config)
        cfg["det_ids"] = self.det_ids
        cfg["alpha_accept_rate"] = self.alpha_accept_rate
        write_json(directory / "config.json", cfg)

    @classmethod
    def load(cls, directory) -> "PosteriorSamples":
        """Read a directory ``save`` wrote; the labels (``c``) older versions wrote are skipped."""
        directory = Path(directory)
        with open(directory / "config.json", encoding="utf-8") as fh:
            cfg = json.load(fh)
        det_ids = cfg.pop("det_ids")
        accept = cfg.pop("alpha_accept_rate", float("nan"))
        cfg["hyper"] = Hyperparameters(**cfg["hyper"])
        config = ChainConfig(**cfg)
        with open(directory / "theta.csv", encoding="utf-8") as fh:
            next(fh)  # header
            theta = np.array(
                [[float(v) for v in line.split(",")] for line in fh if line.strip()]
            )
        clusters = []
        with open(directory / "clusters.jsonl", encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                clusters.append(
                    ClusterSample(
                        phi=np.asarray(rec["phi"], dtype=float),
                        tau=np.asarray(rec["tau"], dtype=float),
                        counts=np.asarray(rec["counts"], dtype=np.int64),
                        w=None if rec["w"] is None else np.asarray(rec["w"], dtype=float),
                        alpha=rec["alpha"],
                        mu_phi=rec["mu_phi"],
                    )
                )
        return cls(theta, clusters, config, det_ids, alpha_accept_rate=accept)


# ---------------------------------------------------------------------------
# normal-gamma base measure


# The draws below write ``rng.gamma(a, s)`` as ``s * rng.standard_gamma(a)``
# and ``rng.normal(m, s)`` as ``m + s * rng.standard_normal(shape)``: the same
# bits and the same stream position, without the per-call argument checks
# of ``gamma`` and ``normal`` (a test pins the equivalence).


def _draw_normal_gamma(mu0, lam, nu1, nu2, rng):
    """Draw (phi, tau) with tau ~ Gamma(nu1, rate nu2), phi|tau normal."""
    tau = max((1.0 / nu2) * rng.standard_gamma(nu1), np.finfo(float).tiny)
    phi = mu0 + (1.0 / np.sqrt(lam * tau)) * rng.standard_normal()
    return phi, tau


def _base_marginal_terms(hyper: Hyperparameters):
    """Degrees of freedom, squared scale, log normaliser and exponent of the base marginal."""
    df = 2.0 * hyper.nu1
    scale2 = hyper.nu2 * (hyper.lam + 1.0) / (hyper.nu1 * hyper.lam)
    log_norm = (
        math.lgamma(0.5 * (df + 1.0))
        - math.lgamma(0.5 * df)
        - 0.5 * math.log(df * math.pi * scale2)
    )
    return df, scale2, log_norm, 0.5 * (df + 1.0)


def base_marginal(theta, mu_phi: float, hyper: Hyperparameters):
    """Prior predictive density of a calendar age from a brand-new cluster.

    A scaled Student-t: 2*nu1 degrees of freedom, located at the overall
    centring, scale sqrt(nu2*(lam+1)/(nu1*lam)).
    """
    df, scale2, log_norm, expo = _base_marginal_terms(hyper)
    theta = np.asarray(theta, dtype=float)
    return np.exp(log_norm - expo * np.log1p((theta - mu_phi) ** 2 / scale2 / df))


def _draw_cluster_params(counts, sums, sqsums, mu_phi: float, hyper: Hyperparameters, rng):
    """Conjugate normal-gamma draw of (phi, tau) from member counts, sums and squared sums."""
    mean = sums / np.maximum(counts, 1.0)
    ss = np.maximum(sqsums - counts * mean * mean, 0.0)
    lam_n = hyper.lam + counts
    mu_n = (hyper.lam * mu_phi + sums) / lam_n
    nu1_n = hyper.nu1 + 0.5 * counts
    nu2_n = hyper.nu2 + 0.5 * ss + hyper.lam * counts * (mean - mu_phi) ** 2 / (2.0 * lam_n)
    tau = np.maximum((1.0 / nu2_n) * rng.standard_gamma(nu1_n), np.finfo(float).tiny)
    phi = mu_n + (1.0 / np.sqrt(lam_n * tau)) * rng.standard_normal(np.shape(tau) or None)
    return phi, tau


# ---------------------------------------------------------------------------
# state initialisation


def init_state(
    dets,
    curve: CalibrationCurve,
    hyper: Hyperparameters,
    rng,
    sampler: str = "polya",
    theta_map=None,
) -> DpmmState:
    """Initial state: ages at their coarse MAP estimates, labels round-robin.

    Cluster parameters are drawn from their conditional given those ages and
    labels, with the overall centring at its prior mean, so every cluster
    starts around its members; the concentration starts at a draw from its
    prior.
    """
    n = len(dets)
    if n < 1:
        raise DataError("need at least one determination")
    if theta_map is None:
        theta_map = map_estimates(dets, curve)
    theta = np.asarray(theta_map, dtype=float).copy()
    c = np.arange(n, dtype=np.int64) % hyper.n_init_clusters
    k = min(n, hyper.n_init_clusters)  # round robin leaves no label unused

    alpha = float(max(rng.gamma(hyper.eta1, 1.0 / hyper.eta2), np.finfo(float).tiny))
    state = DpmmState(
        theta=theta,
        c=c,
        phi=np.empty(k),
        tau=np.empty(k),
        w=np.empty(0),
        alpha=alpha,
        mu_phi=hyper.xi,
    )
    update_cluster_params(state, hyper, rng)
    if sampler == "walker":
        walker_update_weights(state, rng)
    return state


# ---------------------------------------------------------------------------
# step 1: calendar ages


def update_theta(states, rngs, theta, x, var_obs, curve: CalibrationCurve, slice_cfg: SliceConfig):
    """Slice-sample every calendar age of ``states`` from its conditional, all at once.

    Given the cluster parameters the ages are independent, each with log
    density: curve likelihood of its measurement ``x`` (variance ``var_obs``
    plus the curve variance) times its cluster's normal prior, additive
    constants dropped.  ``states`` are chain states advanced together and
    ``rngs`` their generators, one per state; ``theta`` holds the states'
    ages in order, each ``state.theta`` a view of it, and ``x``, ``var_obs``
    and any per-coordinate widths of ``slice_cfg`` run over the same dates.
    Each state's generator serves its own dates only, so each chain draws
    what it would alone.  ``theta`` is updated in place.
    """
    phi = np.concatenate([s.phi[s.c] for s in states])
    half_tau = 0.5 * np.concatenate([s.tau[s.c] for s in states])
    interp = curve.interp

    def log_post(theta, index):
        both = interp(theta)
        sd = both.imag
        var = sd * sd + var_obs[index]
        dev = theta - phi[index]
        return log_likelihood(x[index], both.real, var, np.log(var)) - half_tau[index] * dev * dev

    theta[:] = slice_sample_array(log_post, theta, slice_cfg, rngs, [len(s.theta) for s in states])


# ---------------------------------------------------------------------------
# step 2, polya variant


def polya_reallocate(state: DpmmState, hyper: Hyperparameters, rng) -> np.ndarray:
    """Resample every label in index order under the marginal-weights scheme.

    One call is one sweep.  For date i, each existing cluster weighs its
    occupancy without i times its normal density at i's age; a new cluster
    weighs the concentration times the base marginal.  A new cluster's
    parameters come from the conditional given its one member.  An emptied
    cluster keeps its slot, weighing ``exp(-inf) = 0``, so no label moves until
    one compaction after the pass drops the empty slots in order.  A uniform of
    exactly 0.0 (probability 2**-53 per date) seats its date in the first slot
    even when that slot is empty, as deleting a cluster when it emptied did for
    a date's own cluster.

    Per sweep: the (dates x clusters) table ``quad`` of ``(0.5*tau) * dev *
    dev`` with ``dev = theta - phi``, built by numpy and held as Python rows
    (an opened cluster appends its term to the rows of the later dates), and
    each date's new-cluster log weight.  Per cluster, ``base`` holds ``log n
    + 0.5*log(tau)``, redone for the cluster a date leaves and the one it
    joins.  A log weight is ``base[j] - quad[i][j]``, the scalar form's
    operations in its order, so the chain's bits are those of a per-date
    loop.  The weights stay scalar: numpy's ``exp`` need not round as libm's
    does, and each date draws its own ``random()``, since a date that opens a
    cluster draws its parameters from the same generator before the next
    date's uniform.  Returns ``state.c``.
    """
    n = len(state.c)
    theta = state.theta.tolist()
    c = state.c.tolist()
    phi = state.phi.tolist()
    tau = state.tau.tolist()
    counts = np.bincount(state.c, minlength=len(phi)).tolist()
    half_log_tau = [0.5 * math.log(t) for t in tau]
    log_count = [-math.inf] + [math.log(m) for m in range(1, n + 1)]
    base = [log_count[m] + hl for m, hl in zip(counts, half_log_tau)]
    dev = state.theta[:, None] - state.phi
    quad = (0.5 * state.tau * dev * dev).tolist()
    df, scale2, log_norm, expo = _base_marginal_terms(hyper)
    log_alpha = math.log(state.alpha)
    mu_phi = state.mu_phi
    # The 2*pi constant differs between the normal terms (dropped) and the t
    # marginal (full density); reinstate it so the weights are consistent.
    half_log_2pi = 0.5 * LOG_2PI
    exp, log1p, random = math.exp, math.log1p, rng.random
    log_new = [
        log_alpha + (log_norm - expo * log1p((t - mu_phi) ** 2 / scale2 / df)) + half_log_2pi
        for t in theta
    ]

    for i, t in enumerate(theta):
        old = c[i]
        counts[old] -= 1
        base[old] = log_count[counts[old]] + half_log_tau[old]
        log_w = list(map(sub, base, quad[i]))
        log_w.append(log_new[i])
        top = max(log_w)
        weights = [exp(lw - top) for lw in log_w]
        target = random() * sum(weights)
        # The first cluster whose running weight reaches the target; the new
        # cluster when rounding leaves every running weight short of it.
        k = len(base)
        j = bisect_left(list(accumulate(weights)), target, 0, k)
        if j == k:
            new_phi, new_tau = _draw_cluster_params(1.0, t, t * t, mu_phi, hyper, rng)
            new_phi, new_tau = float(new_phi), float(new_tau)  # numpy scalars: slower sums
            phi.append(new_phi)
            tau.append(new_tau)
            half_log_tau.append(0.5 * math.log(new_tau))
            ht = 0.5 * new_tau
            for row, s in zip(quad[i + 1 :], theta[i + 1 :]):
                row.append(ht * (s - new_phi) * (s - new_phi))
            counts.append(0)
            base.append(0.0)
        c[i] = j
        counts[j] += 1
        base[j] = log_count[counts[j]] + half_log_tau[j]

    live = [j for j, m in enumerate(counts) if m]
    rank = {j: k for k, j in enumerate(live)}
    state.c[:] = [rank[j] for j in c]
    state.phi, state.tau = np.array(phi)[live], np.array(tau)[live]
    return state.c


# ---------------------------------------------------------------------------
# step 2, walker variant


def walker_update_weights(state: DpmmState, rng):
    """Resample stick weights from their Beta conditionals given allocations."""
    counts = state.occupancy().astype(float)
    tail = np.concatenate([np.cumsum(counts[::-1])[::-1][1:], [0.0]])
    v = rng.beta(1.0 + counts, state.alpha + tail)
    v = np.clip(v, 1e-300, 1.0 - 1e-15)  # keep every stick weight in (0, 1)
    prefix = np.concatenate([[1.0], np.cumprod(1.0 - v)[:-1]])
    state.w = v * prefix
    state.w_remainder = float(prefix[-1] * (1.0 - v[-1]))
    return state.w


def _extend_sticks(state: DpmmState, hyper: Hyperparameters, rng, min_u: float) -> None:
    """Append prior sticks until the unbroken remainder drops below min_u.

    The remainder is the running product of the unbroken fractions, so
    represented weights plus remainder total one in the stick algebra.
    New sticks get prior cluster parameters given the current centring.
    """
    if not min_u > 0.0:
        raise ValueError("min_u must be positive")
    remainder = state.w_remainder
    new_phi, new_tau, new_w = [], [], []
    while remainder >= min_u:
        if state.n_clusters + len(new_w) >= _MAX_STICKS:
            raise AssertionError("stick extension exceeded safety limit")
        v_new = min(max(rng.beta(1.0, state.alpha), 1e-300), 1.0 - 1e-15)
        new_w.append(remainder * v_new)
        remainder *= 1.0 - v_new
        p, t = _draw_normal_gamma(state.mu_phi, hyper.lam, hyper.nu1, hyper.nu2, rng)
        new_phi.append(p)
        new_tau.append(t)
    state.w_remainder = remainder
    if new_w:
        state.w = np.concatenate([state.w, new_w])
        state.phi = np.concatenate([state.phi, new_phi])
        state.tau = np.concatenate([state.tau, new_tau])


def walker_reallocate(state: DpmmState, u: np.ndarray, rng) -> np.ndarray:
    """Resample every label among the sticks heavier than its slice variable.

    Given the slice variables ``u`` the labels are independent: label i is
    drawn from the sticks with ``w > u[i]``, weighted by their cluster's
    normal density at age i alone.  Each date's current stick qualifies, so
    no candidate set is empty.  Returns ``state.c``, updated in place.
    """
    # Sticks past the last one heavier than the smallest u are no candidates.
    k = int(np.flatnonzero(state.w > u.min())[-1]) + 1
    phi, tau, w = state.phi[:k], state.tau[:k], state.w[:k]
    dev = state.theta[:, None] - phi
    log_w = np.where(w > u[:, None], 0.5 * np.log(tau) - 0.5 * tau * dev * dev, -np.inf)
    cdf = np.cumsum(np.exp(log_w - log_w.max(axis=1, keepdims=True)), axis=1)
    # The uniform lies in (0, 1], so the target is positive and the first
    # stick whose cumulative weight reaches it is a candidate.
    target = (1.0 - rng.random(len(u))) * cdf[:, -1]
    state.c[:] = (cdf < target[:, None]).sum(axis=1)
    return state.c


def _trim_tail_sticks(state: DpmmState) -> None:
    """Drop represented sticks beyond the last occupied one.

    Interior empty sticks must be kept: stick labels are not exchangeable
    (earlier sticks are stochastically heavier), so deleting a stick from
    the middle of the list is an invalid relabelling move that biases the
    partition posterior toward fewer clusters.  Tail sticks carry no such
    information and are regenerated from the prior when next needed; their
    mass returns to the unbroken remainder.
    """
    j_max = int(state.c.max())
    if j_max + 1 == state.n_clusters:
        return
    state.phi = state.phi[: j_max + 1]
    state.tau = state.tau[: j_max + 1]
    state.w_remainder += float(state.w[j_max + 1 :].sum())
    state.w = state.w[: j_max + 1]


# ---------------------------------------------------------------------------
# shared conditionals


def update_cluster_params(state: DpmmState, hyper: Hyperparameters, rng):
    """Redraw every represented cluster's (mean, precision) conjugately.

    Empty represented sticks reduce to draws from the base given the current
    overall centring.
    """
    k = state.n_clusters
    counts = np.bincount(state.c, minlength=k).astype(float)
    sums = np.bincount(state.c, weights=state.theta, minlength=k)
    sqsums = np.bincount(state.c, weights=state.theta * state.theta, minlength=k)
    state.phi, state.tau = _draw_cluster_params(counts, sums, sqsums, state.mu_phi, hyper, rng)
    return state.phi, state.tau


def log_alpha_likelihood(alpha: float, counts) -> float:
    """Log partition likelihood of the concentration given occupancies.

    The seating-process form: exact for the marginal (polya) sampler, where
    labels are mere partition names.
    """
    counts = np.asarray(counts)
    n = int(counts.sum())
    k = len(counts)
    return (
        k * math.log(alpha)
        + float(sum(math.lgamma(int(nj)) for nj in counts))
        + math.lgamma(alpha)
        - math.lgamma(alpha + n)
    )


def log_alpha_likelihood_sticks(alpha: float, counts_by_stick) -> float:
    """Log likelihood of the concentration given a stick-indexed allocation.

    With explicit stick positions (including interior empty sticks), the
    weights integrate to a different function than the partition form:
    stick j contributes Beta(1 + n_j, alpha + m_j) normalising constants,
    with m_j the members beyond stick j.  The product telescopes to the
    partition form times an extra 1/(alpha + m_j) per represented stick.
    """
    counts = np.asarray(counts_by_stick, dtype=float)
    n = float(counts.sum())
    j_rep = len(counts)
    tail_inclusive = np.cumsum(counts[::-1])[::-1]  # members at or beyond each stick
    return (
        j_rep * math.log(alpha)
        + math.lgamma(alpha)
        - math.lgamma(alpha + n)
        - float(np.log(alpha + tail_inclusive).sum())
    )


def _std_normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _update_alpha_mh(state: DpmmState, hyper: Hyperparameters, rng, log_lik) -> float:
    """Shared MH kernel: positive-truncated normal proposal plus cdf correction."""
    alpha = state.alpha
    sd = hyper.alpha_prop_sd
    prop = alpha + sd * rng.standard_normal()
    while prop <= 0.0:
        prop = alpha + sd * rng.standard_normal()

    def log_prior(a):
        return (hyper.eta1 - 1.0) * math.log(a) - hyper.eta2 * a

    log_accept = (
        log_prior(prop)
        - log_prior(alpha)
        + math.log(_std_normal_cdf(alpha / sd))
        - math.log(_std_normal_cdf(prop / sd))
        + log_lik(prop)
        - log_lik(alpha)
    )
    if math.log(rng.random()) < log_accept:
        state.alpha = float(prop)
    return state.alpha


def update_alpha(state: DpmmState, hyper: Hyperparameters, rng) -> float:
    """Metropolis-Hastings update of the concentration (partition form)."""
    counts = state.occupancy()
    counts = counts[counts > 0]
    return _update_alpha_mh(
        state, hyper, rng, lambda a: log_alpha_likelihood(a, counts)
    )


def _update_alpha_walker(state: DpmmState, hyper: Hyperparameters, rng) -> float:
    """Concentration update conditioned on the stick-indexed allocation."""
    counts = state.occupancy()
    return _update_alpha_mh(
        state, hyper, rng, lambda a: log_alpha_likelihood_sticks(a, counts)
    )


def update_mu_phi(state: DpmmState, hyper: Hyperparameters, rng) -> float:
    """Exact normal draw of the overall cluster centring."""
    if state.n_clusters < 1:
        raise DataError("mu_phi update needs at least one cluster")
    s_tau = hyper.lam * float(state.tau.sum())
    s_tau_phi = hyper.lam * float((state.tau * state.phi).sum())
    prec = hyper.psi + s_tau
    mean = (hyper.xi * hyper.psi + s_tau_phi) / prec
    state.mu_phi = float(mean + prec**-0.5 * rng.standard_normal())
    return state.mu_phi


def expected_clusters(alpha: float, n: int) -> float:
    """Expected number of distinct clusters among n observations."""
    if not alpha > 0:
        raise DataError("alpha must be > 0")
    if n < 1:
        raise DataError("n must be >= 1")
    return float(np.sum(alpha / (alpha + np.arange(n, dtype=float))))


# ---------------------------------------------------------------------------
# chain orchestration


def _store_snapshot(state: DpmmState) -> ClusterSample:
    return ClusterSample(
        phi=state.phi.copy(),
        tau=state.tau.copy(),
        counts=state.occupancy(),
        w=state.w.copy() if len(state.w) else None,
        alpha=state.alpha,
        mu_phi=state.mu_phi,
    )


#: Most dates ``run_chains`` advances in one lockstep batch.  A slice pass
#: over fewer dates costs mostly fixed numpy call overhead, so batching small
#: chains saves most of it; past about this size a pass is bound by its
#: per-date work and batching gains nothing.  The cap also bounds how many
#: chains' stored samples are held at once.
BATCH_DATES = 1000


def _batches(chains):
    """The lockstep batches ``run_chains`` makes of ``(dates, shape, chain)`` triples."""
    batch, total, batch_shape = [], 0, None
    for n, shape, chain in chains:
        if batch and (total + n > BATCH_DATES or shape != batch_shape):
            yield batch
            batch, total = [], 0
        batch.append(chain)
        total, batch_shape = total + n, shape
    if batch:
        yield batch


def check_storage(n_iter: int, n_burn: int, thin: int, workers) -> None:
    """Refuse chains whose stored draws, held at once, exceed physical memory.

    ``workers`` lists, per process, the dates of each chain, all of one shape, that it
    passes to ``run_chains`` in order, dropping each before it asks for the next: it holds
    8 bytes a stored sample and date (``_Chain.stored_theta``) of its largest batch.
    """
    check_chain_length(n_iter, n_burn, thin)
    held = [max(_batches((n, None, n) for n in sizes), key=sum, default=[]) for sizes in workers]
    need = 8 * ((n_iter - n_burn) // thin) * sum(map(sum, held))
    chains = f"the draws of {sum(map(len, held))} chain(s) held at once"
    check_memory(need, f"--iters {n_iter}, --burn {n_burn} and --thin {thin}: {chains}")


class _Chain:
    """One chain of a batch: its inputs, generator, state and stored samples."""

    def __init__(self, dets, curve: CalibrationCurve, cfg: ChainConfig, theta_map):
        self.dets = dets
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.seed)
        self.state = init_state(dets, curve, cfg.hyper, self.rng, cfg.sampler, theta_map)
        self.stored_theta = np.empty((cfg.n_stored, len(dets)))
        self.snapshots: list[ClusterSample] = []
        self.alpha_accepts = 0

    def finish_sweep(self, it: int) -> None:
        """Every step of sweep ``it`` after the ages, then the snapshot if one is due."""
        cfg, hyper, state, rng = self.cfg, self.cfg.hyper, self.state, self.rng
        before = state.alpha
        if cfg.sampler == "polya":
            polya_reallocate(state, hyper, rng)
            update_cluster_params(state, hyper, rng)
            update_alpha(state, hyper, rng)
        else:
            walker_update_weights(state, rng)
            u = (1.0 - rng.random(len(state.c))) * state.w[state.c]
            _extend_sticks(state, hyper, rng, float(u.min()))
            walker_reallocate(state, u, rng)
            update_cluster_params(state, hyper, rng)
            _trim_tail_sticks(state)
            _update_alpha_walker(state, hyper, rng)
        if state.alpha != before:
            self.alpha_accepts += 1
        update_mu_phi(state, hyper, rng)

        if it > cfg.n_burn and (it - cfg.n_burn) % cfg.thin == 0:
            self.stored_theta[len(self.snapshots)] = state.theta
            self.snapshots.append(_store_snapshot(state))

    def samples(self, curve: CalibrationCurve) -> PosteriorSamples:
        self.state.validate(curve)
        return PosteriorSamples(
            theta=self.stored_theta,
            clusters=self.snapshots,
            config=self.cfg,
            det_ids=[d.id for d in self.dets],
            alpha_accept_rate=self.alpha_accepts / self.cfg.n_iter,
        )


def _run_batch(jobs, curve: CalibrationCurve) -> list[PosteriorSamples]:
    """Advance the chains of ``jobs`` in lockstep: one age update for all per sweep.

    The chains share one run length and one step cap (``run_chains`` batches
    them so); their widths may differ.  Their ages live in one array, of
    which each chain's ``state.theta`` is a view.
    """
    chains = [_Chain(dets, curve, cfg, theta_map) for dets, cfg, theta_map in jobs]
    states, rngs = [ch.state for ch in chains], [ch.rng for ch in chains]
    sizes = [len(ch.dets) for ch in chains]
    x = np.array([d.x for ch in chains for d in ch.dets])
    var_obs = np.array([d.sigma * d.sigma for ch in chains for d in ch.dets])
    widths = [ch.cfg.hyper.slice_width for ch in chains]
    width = np.repeat(widths, sizes) if len(set(widths)) > 1 else widths[0]
    cfg = chains[0].cfg
    slice_cfg = SliceConfig(width, cfg.hyper.slice_max_steps, curve.support)
    theta = np.concatenate([s.theta for s in states])
    for s, view in zip(states, np.split(theta, np.cumsum(sizes)[:-1])):
        s.theta = view
    for it in range(1, cfg.n_iter + 1):
        update_theta(states, rngs, theta, x, var_obs, curve, slice_cfg)
        for ch in chains:
            ch.finish_sweep(it)
    return [ch.samples(curve) for ch in chains]


def run_chains(jobs, curve: CalibrationCurve):
    """Run independent Gibbs chains, advancing up to ``BATCH_DATES`` dates together.

    ``jobs`` is a sequence of ``(dets, cfg, theta_map)``, one per chain,
    with ``theta_map`` as for :func:`run_chain` (``None`` to compute it).
    Consecutive chains with the same ``n_iter`` and ``slice_max_steps`` are
    grouped into batches of at most ``BATCH_DATES`` dates (a larger chain
    runs alone); the chains of a batch share each sweep's age update, and
    every other step runs per chain.  Each chain draws from its own
    ``np.random.default_rng(cfg.seed)`` exactly what it draws when run
    alone, so its samples do not depend on its batch.

    Yields each chain's :class:`PosteriorSamples`, in the order of
    ``jobs``, one batch at a time.
    """
    chains = ((len(job[0]), (job[1].n_iter, job[1].hyper.slice_max_steps), job) for job in jobs)
    for batch in _batches(chains):
        yield from _run_batch(batch, curve)


def run_chain(
    dets, curve: CalibrationCurve, cfg: ChainConfig, theta_map=None
) -> PosteriorSamples:
    """Run one Gibbs chain and return the thinned posterior samples.

    The chain starts at ``theta_map``, the coarse MAP ages of
    :func:`~carbcal.calibrate.map_estimates`, computed by :func:`init_state`
    if not given.
    Deterministic given the config seed: rerunning with identical inputs
    reproduces the output bit for bit.  The one-chain case of
    :func:`run_chains`.
    """
    [samples] = run_chains([(dets, cfg, theta_map)], curve)
    return samples
