"""Independent oracles used by the tests: enumeration and quadrature.

Everything here is derived from first principles (Beta/Gamma integrals,
partition enumeration) and deliberately shares no code with the package.
"""

import math
from types import SimpleNamespace

import numpy as np
from scipy import integrate


def ng_block_log_marginal(thetas, mu0, lam, nu1, nu2):
    """Log marginal density of a block of ages under one normal-gamma cluster."""
    thetas = np.asarray(thetas, dtype=float)
    b = len(thetas)
    tbar = thetas.mean()
    ss = ((thetas - tbar) ** 2).sum()
    lam_b = lam + b
    nu2_b = nu2 + 0.5 * ss + lam * b * (tbar - mu0) ** 2 / (2 * lam_b)
    return (
        -0.5 * b * math.log(2 * math.pi)
        + 0.5 * (math.log(lam) - math.log(lam_b))
        + math.lgamma(nu1 + b / 2)
        - math.lgamma(nu1)
        + nu1 * math.log(nu2)
        - (nu1 + b / 2) * math.log(nu2_b)
    )


def all_partitions(items):
    """Every set partition of ``items`` as a list of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for p in all_partitions(rest):
        for k in range(len(p)):
            yield p[:k] + [p[k] + [first]] + p[k + 1 :]
        yield p + [[first]]


def canon(labels):
    """Relabel a label vector into first-appearance order."""
    seen, out = {}, []
    for lbl in labels:
        out.append(seen.setdefault(lbl, len(seen)))
    return tuple(out)


def log_crp_alpha_factor(k, n, eta1, eta2):
    """log E_alpha[alpha^k Gamma(alpha)/Gamma(alpha+n)] under Gamma(eta1, eta2)."""

    def integrand(a):
        return math.exp(
            k * math.log(a)
            + math.lgamma(a)
            - math.lgamma(a + n)
            + (eta1 - 1) * math.log(a)
            - eta2 * a
            + eta1 * math.log(eta2)
            - math.lgamma(eta1)
        )

    value, _ = integrate.quad(integrand, 0, np.inf, limit=400)
    return math.log(value)


def partition_posterior(thetas, hyper, alpha=None):
    """Exact posterior over canonical partitions for fixed ages.

    The overall centring is assumed pinned at ``hyper.xi`` (use a huge psi in
    the chain being tested).  ``alpha=None`` integrates the concentration
    over its Gamma prior by quadrature; a float conditions on that value.
    """
    thetas = np.asarray(thetas, dtype=float)
    n = len(thetas)
    keys, logs = [], []
    for p in all_partitions(list(range(n))):
        if alpha is None:
            lw = log_crp_alpha_factor(len(p), n, hyper.eta1, hyper.eta2)
        else:
            lw = len(p) * math.log(alpha) + math.lgamma(alpha) - math.lgamma(alpha + n)
        for block in p:
            lw += math.lgamma(len(block))
            lw += ng_block_log_marginal(
                thetas[block], hyper.xi, hyper.lam, hyper.nu1, hyper.nu2
            )
        labels = [0] * n
        for j, block in enumerate(sorted(p, key=min)):
            for i in block:
                labels[i] = j
        keys.append(canon(labels))
        logs.append(lw)
    logw = np.array(logs)
    weights = np.exp(logw - logw.max())
    weights /= weights.sum()
    out = {}
    for key, pw in zip(keys, weights):
        out[key] = out.get(key, 0.0) + float(pw)
    return out


def total_variation(p, q):
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def _block_log_marginal_vec(sum_t, sumsq_t, b, mu0, lam, nu1, nu2):
    """Vectorised normal-gamma block marginal for arrays of block sums."""
    tbar = sum_t / b
    ss = sumsq_t - b * tbar * tbar
    lam_b = lam + b
    nu2_b = nu2 + 0.5 * ss + lam * b * (tbar - mu0) ** 2 / (2 * lam_b)
    return (
        -0.5 * b * math.log(2 * math.pi)
        + 0.5 * (math.log(lam) - math.log(lam_b))
        + math.lgamma(nu1 + b / 2)
        - math.lgamma(nu1)
        + nu1 * math.log(nu2)
        - (nu1 + b / 2) * np.log(nu2_b)
    )


def flat_curve_three_point_marginal(grid, hyper):
    """Exact marginal cdf of the first of three ages on a flat curve.

    On a flat curve the data carry no age information, so the posterior is
    the mixture prior truncated to the grid window: a sum over the five
    partitions of three items, each weighted by its seating probability
    (concentration integrated over its Gamma prior) times the product of
    normal-gamma block marginals, with the overall centring pinned at
    ``hyper.xi``.  Returns (grid, cdf) over the supplied cell centres.
    """
    g = np.asarray(grid, dtype=float)
    t1 = g[:, None, None]
    t2 = g[None, :, None]
    t3 = g[None, None, :]
    args = (hyper.xi, hyper.lam, hyper.nu1, hyper.nu2)

    def single(a):
        return _block_log_marginal_vec(a, a * a, 1, *args)

    def pair(a, b):
        return _block_log_marginal_vec(a + b, a * a + b * b, 2, *args)

    def triple(a, b, c):
        return _block_log_marginal_vec(a + b + c, a * a + b * b + c * c, 3, *args)

    lw1 = log_crp_alpha_factor(1, 3, hyper.eta1, hyper.eta2) + math.lgamma(3)
    lw2 = log_crp_alpha_factor(2, 3, hyper.eta1, hyper.eta2) + math.lgamma(2)
    lw3 = log_crp_alpha_factor(3, 3, hyper.eta1, hyper.eta2)

    s1, s2, s3 = single(t1), single(t2), single(t3)
    terms = [
        lw1 + triple(t1, t2, t3),
        lw2 + pair(t1, t2) + s3,
        lw2 + pair(t1, t3) + s2,
        lw2 + pair(t2, t3) + s1,
        lw3 + s1 + s2 + s3,
    ]
    peak = np.maximum.reduce(terms)
    density = sum(np.exp(t - peak) for t in terms) * np.exp(peak - peak.max())
    density /= density.sum()
    marginal = density.sum(axis=(1, 2))
    return g, np.cumsum(marginal)


def cluster_count_marginal(partition_probs):
    out = {}
    for key, pw in partition_probs.items():
        k = len(set(key))
        out[k] = out.get(k, 0.0) + pw
    return out


def _ref_log_categorical_draw(log_weights, rng) -> int:
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


def _ref_drop_cluster(state, j) -> None:
    keep = np.arange(len(state.phi)) != j
    state.phi = state.phi[keep]
    state.tau = state.tau[keep]
    state.c = np.where(state.c > j, state.c - 1, state.c)


def ref_polya_reallocate_one(state, i, hyper, rng) -> int:
    """Reference polya step for date ``i`` alone, one date per call.

    The per-date marginal-weights reallocation with explicit cluster
    parameters, written as a straightforward loop that rebuilds counts and
    log terms for every date.  A sweep of the package's polya reallocation
    must reproduce ``n`` calls of it, for i = 0..n-1, bit for bit, drawing
    the same random numbers in the same order.
    """
    theta_i = float(state.theta[i])
    old = int(state.c[i])
    counts = np.bincount(state.c, minlength=len(state.phi))
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
    # Student-t prior predictive of a new cluster, with the 2*pi constant the
    # normal terms drop put back.
    df = 2.0 * hyper.nu1
    scale2 = hyper.nu2 * (hyper.lam + 1.0) / (hyper.nu1 * hyper.lam)
    z2 = (theta_i - state.mu_phi) ** 2 / scale2
    log_t = (
        math.lgamma(0.5 * (df + 1.0))
        - math.lgamma(0.5 * df)
        - 0.5 * math.log(df * math.pi * scale2)
        - 0.5 * (df + 1.0) * math.log1p(z2 / df)
    )
    log_w.append(math.log(state.alpha) + log_t + 0.5 * math.log(2.0 * math.pi))

    choice = _ref_log_categorical_draw(log_w, rng)
    if choice == len(phi):
        # Normal-gamma conditional given the one member theta_i.
        lam_n = hyper.lam + 1.0
        mu_n = (hyper.lam * state.mu_phi + theta_i) / lam_n
        nu1_n = hyper.nu1 + 0.5
        nu2_n = hyper.nu2 + 0.0 + hyper.lam * 1.0 * (theta_i - state.mu_phi) ** 2 / (2.0 * lam_n)
        new_tau = rng.gamma(nu1_n, 1.0 / nu2_n)
        new_phi = rng.normal(mu_n, 1.0 / math.sqrt(lam_n * new_tau))
        state.phi = np.append(state.phi, new_phi)
        state.tau = np.append(state.tau, new_tau)
        choice = len(state.phi) - 1
    state.c[i] = choice
    if counts[old] == 0 and choice != old:
        _ref_drop_cluster(state, old)
    return int(state.c[i])


def ref_map_estimates(dets, curve, coarse_resolution=5.0):
    """Reference coarse-grid MAP age per date, one date per loop pass.

    The straightforward per-date loop: the variance terms are rebuilt for
    every date.  The package's MAP must equal it bit for bit.  A date whose
    likelihood underflows to zero all over the grid raises ``ValueError``
    carrying its id; the first such date in input order is the one named.
    """
    lo, hi = curve.support
    n_cells = int(math.floor((hi - lo) / coarse_resolution + 1e-9))
    theta = lo + coarse_resolution * np.arange(n_cells + 1)
    m, rho = curve.at(theta)
    rho2 = rho * rho
    out = np.empty(len(dets))
    for k, det in enumerate(dets):
        var = rho2 + det.sigma * det.sigma
        loglik = -0.5 * (det.x - m) ** 2 / var - 0.5 * np.log(var)
        best = int(np.argmax(loglik))
        if not math.exp(loglik[best]) > 0:
            raise ValueError(det.id)
        out[k] = theta[best]
    return out


def ref_predictive_mixture(w, phi, tau, grid):
    """Reference normal-mixture part of one snapshot's predictive, one cluster per pass.

    The loop as it stood before the package shared one mixture density: a
    zero weight is skipped and each cluster's sd is its own scalar power of
    its precision.  The package's predictive, less its new-cluster term,
    must equal it bit for bit.
    """
    out = np.zeros_like(grid)
    for weight, phi_j, tau_j in zip(w, phi, tau):
        if weight == 0.0:
            continue
        sd = tau_j**-0.5
        z = (grid - phi_j) / sd
        out += weight * np.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))
    return out


def ref_three_phase_density(theta, phases):
    """Reference density of a mixture given as (weight, mean, sd) triples, one per pass."""
    theta = np.asarray(theta, dtype=float)
    out = np.zeros_like(theta)
    for weight, mean, sd in phases:
        z = (theta - mean) / sd
        out += weight * np.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))
    return out


def ref_draw_truth(family, n, rng):
    """Reference candidate truth of a study scenario family, drawn with numpy's distribution calls.

    The draws as they stood before the study wrote them on the generator's
    ``standard_*`` streams.  The package's scenarios, and its generator's
    position after drawing one, must equal those of a rejection loop over this.
    """
    if family == "single_normal":
        tau = rng.gamma(1.0, 1.0 / 10_000.0)
        phi = rng.normal(10_000.0, 10.0 / tau)
        theta = rng.normal(phi, tau**-0.5, size=n)
        return theta, {"tau": float(tau), "phi": float(phi)}
    if family == "three_normal":
        tau = rng.gamma(1.0, 1.0 / 10_000.0, size=3)
        phi = rng.normal(3_000.0, 10.0 / tau)
        w = rng.dirichlet([1.0, 1.0, 1.0])
        comp = rng.choice(3, size=n, p=w)
        theta = rng.normal(phi[comp], tau[comp] ** -0.5)
        return theta, {"tau": tau.tolist(), "phi": phi.tolist(), "w": w.tolist()}
    start = rng.uniform(100.0, 14_000.0)
    length = rng.uniform(50.0, 1_000.0)
    theta = rng.uniform(start, start + length, size=n)
    return theta, {"start": float(start), "length": float(length)}


def ref_likelihood(det, curve, theta):
    """Reference measurement density of one date at calendar age(s) ``theta``.

    The formula as it stood before the grids, the MAP ages and the likelihood
    shared one curve pass.  The package's likelihood must equal it bit for bit.
    """
    m, rho = curve.at(theta)
    var = rho * rho + det.sigma * det.sigma
    resid = det.x - m
    return np.exp(-0.5 * (resid * resid / var + np.log(var)) - 0.5 * math.log(2.0 * math.pi))


def ref_independent_density(det, curve, resolution):
    """Reference posterior grid density of one date under a flat prior, one date per call.

    The per-date formula as it stood before many dates shared one curve pass:
    the grid, the curve on it and the variance are rebuilt for every date.
    """
    lo, hi = curve.support
    n_cells = int(math.floor((hi - lo) / resolution + 1e-9))
    theta = lo + resolution * np.arange(n_cells + 1)
    m, rho = curve.at(theta)
    var = rho * rho + det.sigma * det.sigma
    resid = det.x - m
    density = np.exp(-0.5 * (resid * resid / var + np.log(var)) - 0.5 * math.log(2.0 * math.pi))
    return density / (density.sum() * resolution)


def ref_hpd_intervals(grid, level):
    """Reference HPD intervals of a normalised density grid, run by run in a loop.

    The cell-mask walk as it stood before the package found all runs in one
    pass: cells join in descending-density order (stable, so ties go to the
    smaller age) until their mass reaches ``level``, and each run of
    contiguous kept cells is one ``(lo, hi, mass)`` interval.  The package's
    intervals must equal these exactly.
    """
    cell_mass = grid.density * grid.resolution
    order = np.argsort(-grid.density, kind="stable")
    cum = np.cumsum(cell_mass[order])
    n_keep = int(np.searchsorted(cum, level, side="left")) + 1
    n_keep = min(n_keep, len(cum))
    keep = np.zeros(len(cum), dtype=bool)
    keep[order[:n_keep]] = True

    intervals = []
    idx = np.flatnonzero(keep)
    start = idx[0]
    prev = idx[0]
    for i in idx[1:]:
        if i != prev + 1:
            intervals.append((start, prev))
            start = i
        prev = i
    intervals.append((start, prev))
    return [
        (float(grid.theta[a]), float(grid.theta[b]), float(cell_mass[a : b + 1].sum()))
        for a, b in intervals
    ]


def ref_age_summary_rows(det_ids, theta, resolution, level):
    """Reference ``age_summaries.csv`` rows of stored draws, one date per loop pass.

    The per-date summary as it stood before the package took every date in
    one pass: the date's mean, a histogram of its draws on cells of width
    ``resolution`` centred on its multiples, from the cell of its smallest
    draw to that of its largest, and the HPD intervals of that histogram
    (:func:`ref_hpd_intervals`).  ``theta`` holds one row per stored sample
    and one column per date.  Rows are ``(id, mean, level, lo, hi, mass)``,
    each date's by ``lo``; the package's file must hold them byte for byte.
    """
    rows = []
    for det_id, draws in zip(det_ids, theta.T):
        mean = float(draws.mean())
        lo = math.floor(draws.min() / resolution) * resolution
        hi = math.ceil(draws.max() / resolution) * resolution
        edges = np.arange(lo - 0.5 * resolution, hi + resolution, resolution)
        counts, _ = np.histogram(draws, bins=edges)
        grid = SimpleNamespace(
            theta=0.5 * (edges[:-1] + edges[1:]),
            density=counts / (counts.sum() * resolution),
            resolution=resolution,
        )
        rows += [(det_id, mean, level, *cells) for cells in ref_hpd_intervals(grid, level)]
    return rows
