"""Dirichlet-process mixture machinery and the Gibbs chain over it.

The sampler state couples each determination's calendar age to a cluster of
a normal mixture whose weights carry a stick-breaking prior.  One sweep
updates, in order: every calendar age by slice sampling its conditional;
the mixture (either marginal-weights reallocation with explicit cluster
parameters, or stick weights plus slice-truncated reallocation); every
cluster's mean/precision from the conjugate normal-gamma conditional; the
concentration by Metropolis-Hastings; and the overall cluster centring by
an exact normal draw.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from carbcal.calcurve import CalibrationCurve
from carbcal.calibrate import Hyperparameters, map_estimates, write_csv
from carbcal.errors import DataError
from carbcal.slicesample import SliceConfig, slice_sample_array

LOG_2PI = math.log(2.0 * math.pi)

_MAX_STICKS = 100_000  # safety valve for the stick-extension loop

SAMPLERS = ("polya", "walker")


@dataclass
class DpmmState:
    """Full sampler state; mutated in place by the update operations."""

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
    def n_obs(self) -> int:
        return len(self.theta)

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
        if not 0 <= self.n_burn < self.n_iter:
            raise DataError("need 0 <= n_burn < n_iter")
        if self.thin < 1:
            raise DataError("thin must be >= 1")
        if self.n_stored < 1:
            raise DataError(
                f"thin {self.thin} exceeds the {self.n_iter - self.n_burn} post-burn-in "
                "iterations; no sample would be stored"
            )

    @property
    def n_stored(self) -> int:
        return (self.n_iter - self.n_burn) // self.thin


@dataclass
class ClusterSample:
    """Mixture snapshot kept for one stored iteration."""

    c: np.ndarray
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
        with open(directory / "config.json", "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, directory) -> "PosteriorSamples":
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
                        c=np.asarray(rec["c"], dtype=np.int64),
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


def _draw_normal_gamma(mu0, lam, nu1, nu2, rng, size=None):
    """Draw (phi, tau) with tau ~ Gamma(nu1, rate nu2), phi|tau normal."""
    tau = rng.gamma(nu1, 1.0 / nu2, size=size)
    phi = rng.normal(mu0, 1.0 / np.sqrt(lam * tau))
    return phi, tau


def _log_base_marginal(theta, mu_phi: float, hyper: Hyperparameters, log1p=math.log1p):
    """Log density of theta with the cluster parameters integrated out.

    Pass ``log1p=np.log1p`` to evaluate an array of ages at once.
    """
    df = 2.0 * hyper.nu1
    scale2 = hyper.nu2 * (hyper.lam + 1.0) / (hyper.nu1 * hyper.lam)
    z2 = (theta - mu_phi) ** 2 / scale2
    return (
        math.lgamma(0.5 * (df + 1.0))
        - math.lgamma(0.5 * df)
        - 0.5 * math.log(df * math.pi * scale2)
        - 0.5 * (df + 1.0) * log1p(z2 / df)
    )


def base_marginal(theta, mu_phi: float, hyper: Hyperparameters):
    """Prior predictive density of a calendar age from a brand-new cluster.

    A scaled Student-t: 2*nu1 degrees of freedom, located at the overall
    centring, scale sqrt(nu2*(lam+1)/(nu1*lam)).
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim == 0:
        return math.exp(_log_base_marginal(float(theta), mu_phi, hyper))
    return np.exp(_log_base_marginal(theta, mu_phi, hyper, log1p=np.log1p))


def _single_obs_posterior_draw(theta_i, mu_phi, hyper, rng):
    """Normal-gamma posterior draw given exactly one member age."""
    lam_n = hyper.lam + 1.0
    mu_n = (hyper.lam * mu_phi + theta_i) / lam_n
    nu1_n = hyper.nu1 + 0.5
    nu2_n = hyper.nu2 + hyper.lam * (theta_i - mu_phi) ** 2 / (2.0 * lam_n)
    tau = rng.gamma(nu1_n, 1.0 / nu2_n)
    phi = rng.normal(mu_n, 1.0 / math.sqrt(lam_n * tau))
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
    # Compact away initial clusters that received no member (n < n_init_clusters).
    occupied = np.unique(c)
    relabel = np.zeros(occupied.max() + 1, dtype=np.int64)
    relabel[occupied] = np.arange(len(occupied))
    c = relabel[c]
    k = len(occupied)

    alpha = float(rng.gamma(hyper.eta1, 1.0 / hyper.eta2))
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
        walker_update_weights(state, hyper, rng)
    return state


# ---------------------------------------------------------------------------
# step 1: calendar ages


def update_theta(
    state: DpmmState,
    x: np.ndarray,
    var_obs: np.ndarray,
    curve: CalibrationCurve,
    hyper: Hyperparameters,
    rng,
    slice_cfg: SliceConfig | None = None,
) -> np.ndarray:
    """Slice-sample every calendar age from its conditional, all at once.

    Given the cluster parameters the ages are independent, each with log
    density: curve likelihood of its measurement ``x`` (variance ``var_obs``
    plus the curve variance) times its cluster's normal prior, additive
    constants dropped.  Returns ``state.theta``, updated in place.
    """
    phi = state.phi[state.c]
    half_tau = 0.5 * state.tau[state.c]
    interp = curve.interp

    def log_post(theta, index):
        both = interp(theta)
        sd = both.imag
        var = sd * sd + var_obs[index]
        resid = x[index] - both.real
        dev = theta - phi[index]
        return -0.5 * (resid * resid / var + np.log(var)) - half_tau[index] * dev * dev

    if slice_cfg is None:
        slice_cfg = SliceConfig(
            width=hyper.slice_width, max_steps=hyper.slice_max_steps, bounds=curve.support
        )
    state.theta[:] = slice_sample_array(log_post, state.theta, slice_cfg, rng)
    return state.theta


# ---------------------------------------------------------------------------
# step 2, polya variant


def _log_categorical_draw(log_weights, rng) -> int:
    """Sample an index given unnormalised log weights (max-subtracted)."""
    m = max(log_weights)
    probs = [math.exp(lw - m) for lw in log_weights]
    total = sum(probs)
    target = rng.random() * total
    acc = 0.0
    for idx, p in enumerate(probs):
        acc += p
        if acc >= target:
            return idx
    return len(probs) - 1


def _drop_cluster(state: DpmmState, j: int) -> None:
    keep = np.arange(state.n_clusters) != j
    state.phi = state.phi[keep]
    state.tau = state.tau[keep]
    if len(state.w):
        state.w = state.w[keep]
    state.c = np.where(state.c > j, state.c - 1, state.c)


def polya_reallocate(state: DpmmState, i: int, hyper: Hyperparameters, rng) -> int:
    """Resample one label under the marginal-weights scheme.

    Existing clusters weigh occupancy (excluding i) times the cluster normal
    density; a new cluster weighs concentration times the base marginal.  If
    a new cluster is opened, its parameters come from the single-observation
    posterior; an emptied cluster is removed and labels compacted.
    """
    theta_i = float(state.theta[i])
    old = int(state.c[i])
    counts = state.occupancy()
    counts[old] -= 1

    phi = state.phi.tolist()
    tau = state.tau.tolist()
    log_w = []
    for j in range(len(phi)):
        n_j = counts[j]
        if n_j == 0:
            log_w.append(-math.inf)
            continue
        dev = theta_i - phi[j]
        log_w.append(math.log(n_j) + 0.5 * math.log(tau[j]) - 0.5 * tau[j] * dev * dev)
    log_w.append(
        math.log(state.alpha) + _log_base_marginal(theta_i, state.mu_phi, hyper) + 0.5 * LOG_2PI
    )
    # The 2*pi constant differs between the normal terms (dropped) and the t
    # marginal (full density); reinstate it so the weights are consistent.

    choice = _log_categorical_draw(log_w, rng)
    if choice == len(phi):
        new_phi, new_tau = _single_obs_posterior_draw(theta_i, state.mu_phi, hyper, rng)
        state.phi = np.append(state.phi, new_phi)
        state.tau = np.append(state.tau, new_tau)
        choice = state.n_clusters - 1
    state.c[i] = choice
    if counts[old] == 0 and choice != old:
        _drop_cluster(state, old)
    return int(state.c[i])


# ---------------------------------------------------------------------------
# step 2, walker variant


def walker_update_weights(state: DpmmState, hyper: Hyperparameters, rng, min_u: float = 0.0):
    """Resample stick weights from their Beta conditionals given allocations.

    When ``min_u`` is positive, the stick list is then extended with prior
    sticks (and prior cluster parameters) until the unbroken remainder falls
    below it, guaranteeing every slice-truncated candidate set is complete.
    """
    counts = state.occupancy().astype(float)
    tail = np.concatenate([np.cumsum(counts[::-1])[::-1][1:], [0.0]])
    v = rng.beta(1.0 + counts, state.alpha + tail)
    v = np.clip(v, 1e-300, 1.0 - 1e-15)  # keep every stick weight in (0, 1)
    prefix = np.concatenate([[1.0], np.cumprod(1.0 - v)[:-1]])
    state.w = v * prefix
    state.w_remainder = float(prefix[-1] * (1.0 - v[-1]))
    if min_u > 0.0:
        _extend_sticks(state, hyper, rng, min_u)
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
    if len(state.w):
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
    mean = np.divide(sums, counts, out=np.zeros(k), where=counts > 0)
    ss = np.maximum(sqsums - counts * mean * mean, 0.0)

    lam_n = hyper.lam + counts
    mu_n = (hyper.lam * state.mu_phi + sums) / lam_n
    nu1_n = hyper.nu1 + 0.5 * counts
    nu2_n = (
        hyper.nu2
        + 0.5 * ss
        + hyper.lam * counts * (mean - state.mu_phi) ** 2 / (2.0 * lam_n)
    )
    state.tau = rng.gamma(nu1_n, 1.0 / nu2_n)
    state.phi = rng.normal(mu_n, 1.0 / np.sqrt(lam_n * state.tau))
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


def _update_alpha_mh(state: DpmmState, hyper: Hyperparameters, rng, log_likelihood) -> float:
    """Shared MH kernel: positive-truncated normal proposal plus cdf correction."""
    alpha = state.alpha
    sd = hyper.alpha_prop_sd
    prop = rng.normal(alpha, sd)
    while prop <= 0.0:
        prop = rng.normal(alpha, sd)

    def log_prior(a):
        return (hyper.eta1 - 1.0) * math.log(a) - hyper.eta2 * a

    log_accept = (
        log_prior(prop)
        - log_prior(alpha)
        + math.log(_std_normal_cdf(alpha / sd))
        - math.log(_std_normal_cdf(prop / sd))
        + log_likelihood(prop)
        - log_likelihood(alpha)
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
    state.mu_phi = float(rng.normal(mean, prec**-0.5))
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


def _store_snapshot(state: DpmmState, sampler: str) -> ClusterSample:
    return ClusterSample(
        c=state.c.copy(),
        phi=state.phi.copy(),
        tau=state.tau.copy(),
        counts=state.occupancy().copy(),
        w=state.w.copy() if sampler == "walker" else None,
        alpha=state.alpha,
        mu_phi=state.mu_phi,
    )


def run_chain(dets, curve: CalibrationCurve, cfg: ChainConfig) -> PosteriorSamples:
    """Run one Gibbs chain and return the thinned posterior samples.

    Deterministic given the config seed: rerunning with identical inputs
    reproduces the output bit for bit.
    """
    rng = np.random.default_rng(cfg.seed)
    hyper = cfg.hyper
    n = len(dets)
    x = np.array([d.x for d in dets])
    var_obs = np.array([d.sigma * d.sigma for d in dets])
    theta_map = map_estimates(dets, curve)
    state = init_state(dets, curve, hyper, rng, sampler=cfg.sampler, theta_map=theta_map)

    stored_theta = np.empty((cfg.n_stored, n))
    snapshots: list[ClusterSample] = []
    stored = 0
    alpha_accepts = 0
    slice_cfg = SliceConfig(
        width=hyper.slice_width, max_steps=hyper.slice_max_steps, bounds=curve.support
    )

    for it in range(1, cfg.n_iter + 1):
        update_theta(state, x, var_obs, curve, hyper, rng, slice_cfg=slice_cfg)

        if cfg.sampler == "polya":
            for i in range(n):
                polya_reallocate(state, i, hyper, rng)
            update_cluster_params(state, hyper, rng)
        else:
            walker_update_weights(state, hyper, rng)
            u = (1.0 - rng.random(n)) * state.w[state.c]
            _extend_sticks(state, hyper, rng, float(u.min()))
            walker_reallocate(state, u, rng)
            update_cluster_params(state, hyper, rng)
            _trim_tail_sticks(state)

        before = state.alpha
        if cfg.sampler == "polya":
            update_alpha(state, hyper, rng)
        else:
            _update_alpha_walker(state, hyper, rng)
        if state.alpha != before:
            alpha_accepts += 1
        update_mu_phi(state, hyper, rng)

        if it > cfg.n_burn and (it - cfg.n_burn) % cfg.thin == 0 and stored < cfg.n_stored:
            stored_theta[stored] = state.theta
            snapshots.append(_store_snapshot(state, cfg.sampler))
            stored += 1

    state.validate(curve)
    return PosteriorSamples(
        theta=stored_theta,
        clusters=snapshots,
        config=cfg,
        det_ids=[d.id for d in dets],
        alpha_accept_rate=alpha_accepts / cfg.n_iter,
    )
