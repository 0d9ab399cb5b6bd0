"""Benchmark of the carbcal command-line tool.

Run from the root of a checkout (the carbcal sources are taken from
``src/``; nothing needs installing):

    python3 perfbench/run.py --workload site-walker-n100 --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the benchmark starts the ``carbcal`` CLI as a child
process, again and again with the same inputs, for ``--seconds`` seconds and
reports the end-to-end metrics of ``BENCHMARK.json`` as medians over those
runs.  With ``--trace 1`` it alternates an untraced CLI process with a
traced one (``perfbench/tracer.py``, which calls ``carbcal.cli.main``
in-process with timing wrappers around the package's functions) and reports
the per-layer metrics.  Every run of the CLI is checked; see ``check_*``.
The last line of standard output is the JSON result; the line before it
holds the details: machine, load average, input hashes, checks.

The workloads, why each exists, and which layer metrics should move which
end-to-end metric are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CURVE = "data/synthetic_curve.14c"
SITE = "data/example_three_phase.csv"
WORK = ".perfbench_work"

#: BLAS and OpenMP pools of one thread, so that the numbers measure carbcal
#: and not the scheduler; set here too, before anything imports numpy.
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(THREAD_ENV)

MIN_ITERATIONS = 3          # untraced workload repetitions per run, at least
MIN_TRACED_PAIRS = 2        # (untraced, traced) pairs per traced run, at least
PROCESS_TIMEOUT_S = 150.0   # one CLI process; the run as a whole has 180 s

WALKER_ITERS = 1000         # thin 5 and burn iters/2 (the CLI defaults): 100 stored
POLYA_DATES = 1000
POLYA_ITERS, POLYA_BURN = 150, 50   # thin 1: 100 stored
STUDY_RUNS, STUDY_N, STUDY_ITERS = 8, 50, 150   # burn iters/2, thin 1, jobs 1

#: Age bins (cal BP) of the region workload's sampler-quality check: about
#: 400 years wide, coarser than the wiggles of the synthetic curve and finer
#: than the three phases.
QUALITY_EDGES = (3300.0, 3700.0, 4000.0, 4400.0, 4800.0, 5200.0, 5600.0)
#: How much further from the true bin masses than the seed's own true ages
#: the predictive mean may be, in L1.  Healthy chains were at most 0.11
#: further on 60 seeds; chains whose labels never move, or whose labels
#: ignore the cluster densities, were 0.38 to 0.46 further.
QUALITY_ALLOWANCE = 0.25

HPD_LEVELS = (0.683, 0.954)
MASS_TOL = 1e-6

#: CPU time of ``probe_seconds`` at the nominal machine speed: what it takes
#: on a 2-vCPU "Intel(R) Xeon(R) Processor" guest when no other tenant
#: contends for the host.  Times are reported at that speed; see README.md.
PROBE_NOMINAL_S = 0.0027
PROBE_INTERVAL_S = 0.1
TIME_UNITS = {"s", "ms", "us"}


class BenchmarkError(Exception):
    """The benchmark cannot run in this directory."""


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Command:
    """One CLI process of a workload repetition, without ``--out``."""

    args: list[str]
    expect: dict


@dataclass
class Plan:
    """What one repetition of a workload runs, and how much work that is."""

    commands: list[Command]
    date_sweeps: int
    inputs: list[str]
    quality: object = None          # callable(outdirs) -> (problems, details)
    details: dict = field(default_factory=dict)


def read_ids(path: str) -> list[str]:
    with open(ROOT / path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
    return [row[0].strip() for row in rows[1:]]


def plan_site_walker(seed: int, work: Path) -> Plan:
    ids = read_ids(SITE)
    args = ["dpmm", SITE, "--curve", CURVE, "--sampler", "walker",
            "--iters", str(WALKER_ITERS), "--seed", str(seed)]
    stored = (WALKER_ITERS - WALKER_ITERS // 2) // 5
    expect = {"kind": "dpmm", "ids": ids, "stored": stored}
    return Plan([Command(args, expect)], len(ids) * WALKER_ITERS, [SITE, CURVE])


def plan_region_polya(seed: int, work: Path) -> Plan:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from carbcal import synthetic
    from carbcal.calcurve import load_curve

    dets, true_theta = synthetic.three_phase_determinations(
        load_curve(ROOT / CURVE), n=POLYA_DATES, seed=seed
    )
    path = work / f"dets_n{POLYA_DATES}.csv"
    synthetic.write_determination_file(dets, path)
    rel = str(path.relative_to(ROOT))
    args = ["dpmm", rel, "--curve", CURVE, "--sampler", "polya", "--iters", str(POLYA_ITERS),
            "--burn", str(POLYA_BURN), "--thin", "1", "--seed", str(seed)]
    expect = {"kind": "dpmm", "ids": [d.id for d in dets], "stored": POLYA_ITERS - POLYA_BURN}

    def quality(outdirs):
        """L1 distance of the predictive mean from the true density, in bins.

        The narrow phase (4200 +- 100 BP) sits on a wiggle of the curve; a
        150-sweep chain may settle its cluster 150 years off and stay there.
        At full resolution that costs as much L1 as labels that never move,
        so the distance is taken between bin masses (``QUALITY_EDGES``).
        The tolerance is the distance of this seed's own true ages (no
        measurement error) plus ``QUALITY_ALLOWANCE``, so it follows how far
        this seed's sample is from the truth.
        """
        grid, mean = read_columns(outdirs[0] / "predictive.csv", 2)
        grid, mean = np.array(grid), np.array(mean)
        edges = np.array(QUALITY_EDGES)
        bins = np.searchsorted(edges, grid, side="right")

        def masses(density):
            return np.bincount(bins, weights=density, minlength=len(edges) + 1) * (grid[1] - grid[0])

        truth = masses(synthetic.true_three_phase_density(grid))
        sample = np.bincount(np.searchsorted(edges, true_theta, side="right"),
                             minlength=len(edges) + 1) / len(true_theta)
        l1 = float(np.abs(masses(mean) - truth).sum())
        tol = float(np.abs(sample - truth).sum()) + QUALITY_ALLOWANCE
        problems = [] if l1 < tol else [f"binned predictive L1 {l1:.4f} from truth exceeds {tol:.4f}"]
        return problems, {"predictive_binned_l1": l1, "l1_tolerance": tol}

    return Plan([Command(args, expect)], POLYA_DATES * POLYA_ITERS, [rel, CURVE], quality)


def plan_independent(seed: int, work: Path) -> Plan:
    ids = read_ids(SITE)
    commands = [
        Command(["calibrate", SITE, "--curve", CURVE], {"kind": "calibrate", "ids": ids}),
        Command(["spd", SITE, "--curve", CURVE], {"kind": "spd"}),
    ]
    # Each subcommand makes one grid pass over every date: two date-sweeps.
    return Plan(commands, 2 * len(ids), [SITE, CURVE])


def plan_study(seed: int, work: Path) -> Plan:
    args = ["simulate", "--curve", CURVE, "--family", "three_normal", "--n", str(STUDY_N),
            "--runs", str(STUDY_RUNS), "--iters", str(STUDY_ITERS),
            "--burn", str(STUDY_ITERS // 2), "--thin", "1", "--jobs", "1", "--seed", str(seed)]
    expect = {"kind": "simulate", "runs": STUDY_RUNS}
    # Every run makes one chain per sampler variant.
    return Plan([Command(args, expect)], STUDY_RUNS * 2 * STUDY_N * STUDY_ITERS, [CURVE])


WORKLOADS = {
    "site-walker-n100": plan_site_walker,
    "region-polya-n1000": plan_region_polya,
    "independent-n100": plan_independent,
    "study-3normal-jobs1": plan_study,
}


# ---------------------------------------------------------------------------
# output checks


def read_columns(path: Path, n_columns: int) -> tuple[list[float], ...]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return tuple([float(row[j]) for row in rows] for j in range(n_columns))


def non_finite_cells(path: Path) -> int:
    """Cells of a CSV file that read as NaN or infinity."""
    bad = 0
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                if not math.isfinite(value):
                    bad += 1
    return bad


def _reject_constant(token):
    raise ValueError(f"non-finite JSON number {token}")


def check_common(outdir: Path) -> list[str]:
    problems = []
    for path in sorted(outdir.rglob("*")):
        if path.suffix == ".csv" and non_finite_cells(path):
            problems.append(f"{path.name}: NaN or inf")
        elif path.suffix in (".json", ".jsonl"):
            text = path.read_text(encoding="utf-8")
            documents = text.splitlines() if path.suffix == ".jsonl" else [text]
            try:
                for document in documents:
                    json.loads(document, parse_constant=_reject_constant)
            except ValueError as exc:
                problems.append(f"{path.name}: {exc}")
    return problems


def integrates_to_one(path: Path, column: int) -> bool:
    cols = read_columns(path, column + 1)
    grid, density = cols[0], cols[column]
    return abs(sum(density) * (grid[1] - grid[0]) - 1.0) <= MASS_TOL


def safe_id(raw: str) -> str:
    """File stem the CLI uses for a determination id."""
    return re.sub(r"[^A-Za-z0-9_.-]", "_", raw) or "unnamed"


def check_dpmm(outdir: Path, expect: dict) -> list[str]:
    problems = []
    theta = outdir / "samples" / "theta.csv"
    rows = theta.read_text(encoding="utf-8").splitlines()
    if rows[0].split(",") != expect["ids"] or len(rows) - 1 != expect["stored"]:
        problems.append("theta.csv: wrong ids or number of stored samples")
    if not integrates_to_one(outdir / "predictive.csv", 1):
        problems.append("predictive mean does not integrate to 1")
    _, probs = read_columns(outdir / "cluster_counts.csv", 2)
    if abs(sum(probs) - 1.0) > MASS_TOL:
        problems.append("cluster_counts.csv: probabilities do not sum to 1")
    mass: dict[str, float] = {}
    with open(outdir / "age_summaries.csv", newline="", encoding="utf-8") as fh:
        for row in list(csv.reader(fh))[1:]:
            mass[row[0]] = mass.get(row[0], 0.0) + float(row[5])
    if sorted(mass) != sorted(expect["ids"]):
        problems.append("age_summaries.csv: ids differ from the input")
    short = [i for i, m in mass.items() if m < 0.954 - MASS_TOL]
    if short:
        problems.append(f"age_summaries.csv: HPD mass below 0.954 for {len(short)} ids")
    return problems


def check_calibrate(outdir: Path, expect: dict) -> list[str]:
    problems = []
    for det_id in expect["ids"]:
        stem = safe_id(det_id)
        if not integrates_to_one(outdir / f"{stem}_posterior.csv", 1):
            problems.append(f"{stem}_posterior.csv does not integrate to 1")
        for level in HPD_LEVELS:
            _, _, masses = read_columns(outdir / f"{stem}_hpd_{level}.csv", 3)
            if sum(masses) < level - MASS_TOL:
                problems.append(f"{stem}_hpd_{level}.csv: mass {sum(masses)} below level")
    return problems


def check_spd(outdir: Path, expect: dict) -> list[str]:
    return [] if integrates_to_one(outdir / "spd.csv", 1) else ["spd.csv does not integrate to 1"]


def check_simulate(outdir: Path, expect: dict) -> list[str]:
    results = json.loads((outdir / "results.json").read_text(encoding="utf-8"))
    problems = []
    if len(results["runs"]) != expect["runs"]:
        problems.append("results.json: wrong number of runs")
    if len(results["summary"]) != 4:  # one family and n; two samplers; two losses
        problems.append("results.json: wrong number of summary rows")
    losses = [v for run in results["runs"] for kind in ("indep_loss", "dpmm_loss") for v in run[kind].values()]
    if not all(v > 0 for v in losses):
        problems.append("results.json: a loss is not positive")
    return problems


EXPECTED_FILES = {
    "dpmm": ["manifest.json", "samples/theta.csv", "samples/clusters.jsonl", "samples/config.json",
             "predictive.csv", "cluster_counts.csv", "age_summaries.csv"],
    "spd": ["manifest.json", "spd.csv"],
    "simulate": ["manifest.json", "results.csv", "results.json"],
}
CHECKS = {"dpmm": check_dpmm, "calibrate": check_calibrate, "spd": check_spd, "simulate": check_simulate}


def expected_files(expect: dict) -> list[str]:
    if expect["kind"] == "calibrate":
        stems = [safe_id(i) for i in expect["ids"]]
        return ["manifest.json"] + [f"{s}_posterior.csv" for s in stems] + [
            f"{s}_hpd_{level}.csv" for s in stems for level in HPD_LEVELS
        ]
    return EXPECTED_FILES[expect["kind"]]


def check_outputs(outdir: Path, expect: dict) -> list[str]:
    missing = [f for f in expected_files(expect) if not (outdir / f).is_file()]
    if missing:
        return [f"missing output {missing[0]} (and {len(missing) - 1} more)"]
    try:
        return check_common(outdir) + CHECKS[expect["kind"]](outdir, expect)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"]


def digest(outdir: Path) -> dict[str, str]:
    """sha256 of every output file; the manifest without its ``output_dir``."""
    out = {}
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("output_dir", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        out[str(path.relative_to(outdir))] = hashlib.sha256(data).hexdigest()
    return out


# ---------------------------------------------------------------------------
# child processes


CHILD_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)
CHILD_ENV.pop("CARBCAL_CURVE", None)


@dataclass
class ProcessResult:
    code: int
    wall_s: float
    spawn_ns: int
    rss_mb: float


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


_PROBE_TABLE = [math.sin(i * 0.01) for i in range(1000)]


def probe_seconds() -> float:
    """CPU time of a small fixed computation, interpreter-bound like carbcal.

    Other tenants of the host slow this machine by up to 2x, in stretches of
    seconds to minutes.  This computation slows down with carbcal, so the
    ratio of the two stays put while either alone does not.  Thread CPU time
    leaves out any wait for the CPU.
    """
    start = time.thread_time()
    total = 0.0
    for rep in range(20):
        shift = rep * 1e-3
        for value in _PROBE_TABLE:
            x = value + shift
            total += math.exp(-0.5 * x * x) - math.log1p(abs(x))
    if not math.isfinite(total):
        raise BenchmarkError("probe computation went wrong")
    return time.thread_time() - start


def run_process(argv: list[str], log_path: Path, probes: list) -> ProcessResult:
    """Run one child to completion, probing the machine's speed meanwhile.

    A thread waits for the child while this one appends a probe to
    ``probes`` every ``PROBE_INTERVAL_S``.  ``wait4`` gives the peak resident
    set of the child and of every descendant it reaped, such as simulation
    pool workers, which the CLI joins before it exits.  The child's process
    group is killed on timeout.
    """
    done = {}
    with open(log_path, "wb") as log:
        spawn_ns = time.time_ns()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV, stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)

    def wait():
        done["result"] = os.wait4(proc.pid, 0)
        done["wall"] = time.perf_counter() - start

    waiter = threading.Thread(target=wait)
    timer = threading.Timer(PROCESS_TIMEOUT_S, _kill_group, [proc.pid])
    waiter.start()
    timer.start()
    try:
        while waiter.is_alive():
            probes.append(probe_seconds())
            waiter.join(PROBE_INTERVAL_S)
    except BaseException:
        _kill_group(proc.pid)
        waiter.join()
        raise
    finally:
        timer.cancel()
    _, status, usage = done["result"]
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcessResult(proc.returncode, done["wall"], spawn_ns, usage.ru_maxrss / 1024.0)


# ---------------------------------------------------------------------------
# one repetition of a workload


@dataclass
class Iteration:
    factor: float = 1.0     # PROBE_NOMINAL_S over the median probe during the repetition
    probes: list = field(default_factory=list)
    wall_s: float = 0.0
    setup_s: float = 0.0
    rss_mb: float = 0.0
    output_mb: float = 0.0
    output_files: int = 0
    problems: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    traces: list = field(default_factory=list)


def run_iteration(plan: Plan, workdir: Path, label: str, traced: bool, full_check: bool) -> Iteration:
    it = Iteration()
    base = workdir / label
    base.mkdir(parents=True)
    outdirs = []
    for j, command in enumerate(plan.commands):
        outdir = base / f"{j}-{command.args[0]}"
        outdirs.append(outdir)
        out_args = command.args + ["--out", str(outdir.relative_to(ROOT))]
        if traced:
            trace_json = base / f"{j}-trace.json"
            worker_dir = base / f"{j}-workers"
            worker_dir.mkdir()
            argv = [sys.executable, "perfbench/tracer.py", str(trace_json.relative_to(ROOT)),
                    str(worker_dir.relative_to(ROOT)), "--", *out_args]
        else:
            argv = [sys.executable, "-m", "carbcal.cli", *out_args]
        result = run_process(argv, base / f"{j}.log", it.probes)
        it.wall_s += result.wall_s
        it.rss_mb = max(it.rss_mb, result.rss_mb)
        if result.code != 0:
            tail = (base / f"{j}.log").read_text(errors="replace")[-300:]
            it.problems.append(f"{command.args[0]} exited {result.code}: {tail}")
            continue
        manifest = outdir / "manifest.json"
        if manifest.is_file():
            it.setup_s += (manifest.stat().st_mtime_ns - result.spawn_ns) / 1e9
        if full_check:
            it.problems += check_outputs(outdir, command.expect)
        it.digests.append(digest(outdir))
        files = [p for p in outdir.rglob("*") if p.is_file()]
        it.output_files += len(files)
        it.output_mb += sum(p.stat().st_size for p in files) / 1e6
        if traced:
            it.traces.append(read_trace(trace_json, worker_dir, result.wall_s))
    it.factor = PROBE_NOMINAL_S / statistics.median(it.probes)
    if full_check and plan.quality is not None and not it.problems:
        problems, details = plan.quality(outdirs)
        it.problems += problems
        plan.details.update(details)
    shutil.rmtree(base)
    return it


# ---------------------------------------------------------------------------
# traced runs


def read_trace(trace_json: Path, worker_dir: Path, wall_s: float) -> dict:
    """Trace of one command: its own process plus its pool workers."""
    parent = json.loads(trace_json.read_text(encoding="utf-8"))
    workers = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(worker_dir.glob("*.json"))]
    return {"parent": parent, "workers": workers, "wall_s": wall_s}


def _merge(into: dict, part: dict) -> None:
    for key, (calls, total, own) in part["functions"].items():
        stats = into["functions"].setdefault(key, [0, 0.0, 0.0])
        stats[0] += calls
        stats[1] += total
        stats[2] += own
    for section in ("phases", "counters"):
        for key, value in part[section].items():
            into[section][key] = into[section].get(key, 0.0) + value


def trace_problems(trace: dict) -> list[str]:
    """Spans must nest: layer self times add up to each traced process's wall."""
    parent = trace["parent"]
    problems = []
    if parent["open_spans"]:
        problems.append(f"{parent['open_spans']} spans left open")
    if abs(sum(parent["self_by_layer"].values()) - parent["root_s"]) > 1e-6:
        problems.append("layer self times do not add up to the traced wall time")
    if parent["root_s"] > trace["wall_s"]:
        problems.append("traced wall time exceeds the process lifetime")
    for worker in trace["workers"]:
        own = sum(stats[2] for stats in worker["functions"].values())
        if abs(own - worker["busy_s"]) > 1e-6:
            problems.append("worker self times do not add up to its busy time")
    return problems


def layer_metrics(traces: list[dict], output_mb: float, output_files: int) -> dict:
    """Per-layer metrics of one traced repetition.

    A metric that needs a function carbcal no longer has is left out.
    """
    parent = {"functions": {}, "phases": {}, "counters": {}}
    combined = {"functions": {}, "phases": {}, "counters": {}}
    self_by_layer: dict[str, float] = {}
    missing: set[str] = set()
    jobs = 1.0
    for trace in traces:
        _merge(parent, trace["parent"])
        _merge(combined, trace["parent"])
        missing.update(trace["parent"]["missing"])
        jobs = max(jobs, trace["parent"]["counters"].get("study_jobs", 1.0))
        for layer, value in trace["parent"]["self_by_layer"].items():
            self_by_layer[layer] = self_by_layer.get(layer, 0.0) + value
        for worker in trace["workers"]:
            _merge(combined, worker)
            missing.update(worker["missing"])
            for key, stats in worker["functions"].items():
                layer = key.split(".")[1]
                self_by_layer[layer] = self_by_layer.get(layer, 0.0) + stats[2]

    def phase(agg, name):
        return agg["phases"].get(name, 0.0)

    def calls(key):
        return combined["functions"].get(key, [0])[0]

    def counter(name):
        return combined["counters"].get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0  # the workload never entered the phase

    sweeps = counter("sweeps")
    stored = counter("stored")
    c = combined
    import_s = parent["functions"].get("setup.import", [0, 0.0])[1]
    F = "carbcal."
    table = [
        ("setup.import_s", [], import_s),
        ("calcurve.load_s", ["calcurve.load_curve"], phase(parent, "calcurve.load")),
        ("calibrate.read_s", ["calibrate.read_determinations"], phase(parent, "calibrate.read")),
        ("calibrate.hyper_s", ["calibrate.default_hyperparameters"], phase(parent, "calibrate.hyper")),
        ("calibrate.map_calls", ["calibrate.map_estimates"], calls(F + "calibrate.map_estimates")),
        ("calibrate.map_s", ["calibrate.map_estimates"], phase(c, "calibrate.map")),
        ("slicesample.calls", ["slicesample.slice_sample"], calls(F + "slicesample.slice_sample")),
        ("slicesample.evals_per_call", ["slicesample.slice_sample"],
         ratio(counter("slice_evals"), calls(F + "slicesample.slice_sample"))),
        ("slicesample.us_per_call", ["slicesample.slice_sample"],
         1e6 * ratio(phase(c, "slicesample.sample"), calls(F + "slicesample.slice_sample"))),
        ("dpmm.sweeps", ["dpmm.run_chain"], sweeps),
        ("dpmm.theta_ms_per_sweep", ["dpmm.run_chain", "dpmm.update_theta"],
         1e3 * ratio(phase(c, "dpmm.theta"), sweeps)),
        ("dpmm.walker_realloc_ms_per_sweep", ["dpmm.run_chain", "dpmm.walker_reallocate"],
         1e3 * ratio(phase(c, "dpmm.walker_realloc"), sweeps)),
        ("dpmm.sticks_ms_per_sweep",
         ["dpmm.run_chain", "dpmm.walker_update_weights", "dpmm._extend_sticks", "dpmm._trim_tail_sticks"],
         1e3 * ratio(phase(c, "dpmm.sticks"), sweeps)),
        ("dpmm.polya_realloc_ms_per_sweep", ["dpmm.run_chain", "dpmm.polya_reallocate"],
         1e3 * ratio(phase(c, "dpmm.polya_realloc"), sweeps)),
        ("dpmm.cluster_params_ms_per_sweep", ["dpmm.run_chain", "dpmm.update_cluster_params"],
         1e3 * ratio(phase(c, "dpmm.cluster_params"), sweeps)),
        ("dpmm.alpha_ms_per_sweep", ["dpmm.run_chain", "dpmm.update_alpha", "dpmm._update_alpha_walker"],
         1e3 * ratio(phase(c, "dpmm.alpha"), sweeps)),
        ("dpmm.mu_phi_ms_per_sweep", ["dpmm.run_chain", "dpmm.update_mu_phi"],
         1e3 * ratio(phase(c, "dpmm.mu_phi"), sweeps)),
        ("dpmm.snapshot_ms_per_stored", ["dpmm.run_chain", "dpmm._store_snapshot"],
         1e3 * ratio(phase(c, "dpmm.snapshot"), stored)),
        ("dpmm.chain_self_ms_per_sweep", ["dpmm.run_chain"],
         1e3 * ratio(c["functions"].get(F + "dpmm.run_chain", [0, 0.0, 0.0])[2], sweeps)),
        ("dpmm.represented_sticks_mean", ["dpmm.run_chain"], ratio(counter("represented_sticks"), stored)),
        ("dpmm.occupied_clusters_mean", ["dpmm.run_chain"], ratio(counter("occupied_clusters"), stored)),
        ("dpmm.alpha_accept_rate", ["dpmm.run_chain"], ratio(counter("alpha_accepts"), sweeps)),
        ("dpmm.save_s", ["dpmm.PosteriorSamples.save"], phase(c, "dpmm.save")),
        ("dpmm.save_mb", ["dpmm.PosteriorSamples.save"], counter("save_bytes") / 1e6),
        ("predictive.density_s", ["predictive.predictive_density"], phase(c, "predictive.density")),
        ("predictive.ms_per_snapshot", ["predictive.predictive_density"],
         1e3 * ratio(phase(c, "predictive.density"), counter("predictive_snapshots"))),
        ("predictive.grid_points", ["predictive.predictive_density"],
         ratio(counter("predictive_grid_points"), calls(F + "predictive.predictive_density"))),
        ("predictive.count_posterior_s", ["predictive.cluster_count_posterior"],
         phase(c, "predictive.count_posterior")),
        ("cli.age_summaries_s", ["cli._write_age_summaries"], phase(c, "cli.age_summaries")),
        ("cli.write_grid_s", ["cli._write_grid"], phase(c, "cli.write_grid")),
        ("cli.write_hpd_s", ["cli._write_hpd"], phase(c, "cli.write_hpd")),
        ("cli.output_mb", [], output_mb),
        ("cli.output_files", [], output_files),
        ("cli.self_s", [], self_by_layer.get("cli", 0.0)),
        ("calibrate.independent_ms_per_date", ["calibrate.calibrate_independent"],
         1e3 * ratio(phase(c, "calibrate.independent"), calls(F + "calibrate.calibrate_independent"))),
        ("calibrate.hpd_ms_per_call", ["calibrate.hpd_intervals"],
         1e3 * ratio(phase(c, "calibrate.hpd"), calls(F + "calibrate.hpd_intervals"))),
        ("calibrate.spd_s", ["calibrate.spd"], phase(c, "calibrate.spd")),
        ("simstudy.run_s", ["simstudy.run_study"], phase(parent, "simstudy.run")),
        ("simstudy.chain_s_per_run", ["simstudy._execute_run", "dpmm.run_chain"],
         ratio(phase(c, "dpmm.chain"), counter("study_runs"))),
        ("simstudy.indep_calls_per_date", ["simstudy._execute_run", "calibrate.calibrate_independent"],
         ratio(calls(F + "calibrate.calibrate_independent"), counter("study_dates"))),
        ("simstudy.parallel_efficiency", ["simstudy._execute_run", "simstudy.run_study"],
         ratio(phase(c, "simstudy.execute_run"), jobs * phase(parent, "simstudy.run"))),
    ]
    for layer in ("calcurve", "calibrate", "dpmm", "slicesample", "predictive", "simstudy", "trace"):
        table.append((f"{layer}.self_s", [], self_by_layer.get(layer, 0.0)))
    return {name: float(value) for name, needs, value in table
            if not any(F + key in missing for key in needs)}


# ---------------------------------------------------------------------------
# entry point


def machine() -> dict:
    import numpy
    from importlib.metadata import PackageNotFoundError, version

    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = None
    model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
    }


def sha256_file(path: str) -> str:
    return hashlib.sha256((ROOT / path).read_bytes()).hexdigest()


def load_declared() -> dict:
    """Metric names and units declared in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def require_checkout() -> None:
    needed = ["src/carbcal/__init__.py", "src/carbcal/cli.py", CURVE, SITE, "BENCHMARK.json"]
    missing = [p for p in needed if not (ROOT / p).is_file()]
    if missing:
        raise BenchmarkError(f"not a carbcal checkout: missing {', '.join(missing)}")


def measure(plan: Plan, workdir: Path, seconds: float, traced: bool) -> dict:
    """Repeat the workload until ``seconds`` are used; at least a few times."""
    start = time.perf_counter()
    untraced: list[Iteration] = []
    with_trace: list[Iteration] = []
    reference = None
    k = 0
    while True:
        it = run_iteration(plan, workdir, f"it{k}", False, full_check=reference is None)
        if reference is None:
            reference = it.digests
        elif it.digests != reference:
            it.problems.append("same-seed rerun is not byte-identical")
        untraced.append(it)
        if traced:
            tit = run_iteration(plan, workdir, f"tr{k}", True, full_check=False)
            if tit.digests != reference:
                tit.problems.append("traced outputs differ from untraced outputs")
            for trace in tit.traces:
                tit.problems += trace_problems(trace)
            with_trace.append(tit)
        k += 1
        elapsed = time.perf_counter() - start
        minimum = MIN_TRACED_PAIRS if traced else MIN_ITERATIONS
        if k >= minimum and elapsed * (k + 1) / k > seconds:
            break
    return {"untraced": untraced, "traced": with_trace}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        require_checkout()
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    declared = load_declared()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    workdir = ROOT / WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        # Compile the package once, untimed: users run it installed.
        run_process([sys.executable, "-c", "import carbcal.cli"], workdir / "warmup.log", [])
        plan = WORKLOADS[args.workload](args.seed, workdir)
        inputs = {p: sha256_file(p) for p in plan.inputs}
        # Every workload keeps one CPU busy; pinned, the probes time the vCPU
        # that the CLI process runs on.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        load_before = os.getloadavg()
        runs = measure(plan, workdir, args.seconds, bool(args.trace))
        load_after = os.getloadavg()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    iterations = runs["untraced"] + runs["traced"]
    failed = sum(1 for it in iterations if it.problems)
    wall = statistics.median(it.wall_s * it.factor for it in runs["untraced"])
    unmeasured: list[str] = []
    if args.trace:
        units = declared["per_layer"]
        per_iteration = []
        for it in runs["traced"]:
            if it.traces:
                metrics = layer_metrics(it.traces, it.output_mb, it.output_files)
                metrics["trace.wall_s"] = it.wall_s
                per_iteration.append({
                    name: value * it.factor if units.get(name) in TIME_UNITS else value
                    for name, value in metrics.items()
                })
        values = {
            name: statistics.median(m[name] for m in per_iteration if name in m)
            for name in units
            if any(name in m for m in per_iteration)
        }
        traced_wall = statistics.median(it.wall_s * it.factor for it in runs["traced"])
        values["trace_overhead_frac"] = traced_wall / wall - 1.0
        unmeasured = sorted(set(units) - set(values))
    else:
        units = declared["end_to_end"]
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(it.setup_s * it.factor for it in runs["untraced"]),
            "date_sweeps_per_s": plan.date_sweeps / wall,
            "peak_rss_mb": statistics.median(it.rss_mb for it in runs["untraced"]),
        }
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units if name in values}

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine(),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "inputs_sha256": inputs,
        "date_sweeps_per_repetition": plan.date_sweeps,
        "raw_wall_s_each": [it.wall_s for it in runs["untraced"]],
        "speed_factor_each": [it.factor for it in runs["untraced"]],
        "probe_s_median": statistics.median(p for it in iterations for p in it.probes),
        "problems": sorted({p for it in iterations for p in it.problems}),
        "unmeasured": unmeasured,
        **plan.details,
    }
    print(json.dumps({"perfbench": details}))
    print(json.dumps({"correct": failed == 0, "attempted": len(iterations), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
