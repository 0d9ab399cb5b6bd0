"""In-memory span tracer for one carbcal CLI command, run in-process.

Usage (normally started by ``perfbench/run.py``, from the checkout root):

    python3 perfbench/tracer.py OUT.json WORKER_DIR -- dpmm data/x.csv ...

The script imports ``carbcal.cli`` inside a span, replaces the module-level
functions of the carbcal modules with timing wrappers, calls
``carbcal.cli.main`` with the arguments after ``--`` and writes the
aggregated spans to ``OUT.json``.  No file of the package changes and the
wrappers draw no random numbers, so the command's outputs are
byte-identical to an untraced run with the same arguments.

Each wrapper records a span: its duration, and the part of it that child
spans cover.  A span's self time is its duration minus that part, and a
layer (a carbcal module) owns the self time of its functions' spans.  The
runner's own time is the root span, so the layer self times add up to the
traced wall time exactly.

Worker processes forked by ``simstudy.run_study`` inherit the wrappers.  A
worker starts from empty aggregates and writes them to ``WORKER_DIR`` after
each simulation run, since pool workers exit without running exit hooks.
"""

from __future__ import annotations

import json
import os
import sys
import time

perf_counter = time.perf_counter

#: Modules whose module-level functions get spans; the layer is the suffix.
TRACED_MODULES = (
    "carbcal.calcurve",
    "carbcal.calibrate",
    "carbcal.cli",
    "carbcal.dpmm",
    "carbcal.predictive",
    "carbcal.simstudy",
    "carbcal.slicesample",
)

#: Helpers called per date per sweep, per grid point or per value written,
#: only from functions of their own module.  A span there would cost more
#: than the work it times; their time stays in their caller's layer.
UNTRACED = {
    "carbcal.cli._fmt",
    "carbcal.dpmm._log_base_marginal",
    "carbcal.dpmm._log_categorical_draw",
    "carbcal.dpmm._theta_log_posterior",
    "carbcal.slicesample._finite_or_neg_inf",
    "carbcal.slicesample._slice_step",
}

#: Methods traced in addition to module-level functions.
TRACED_METHODS = {"carbcal.dpmm.PosteriorSamples.save"}

#: Phase of each function the per-layer metrics read.  A phase's time is the
#: duration of its outermost span, so phases never count a nested call twice.
PHASES = {
    "carbcal.calcurve.load_curve": "calcurve.load",
    "carbcal.calibrate.read_determinations": "calibrate.read",
    "carbcal.calibrate.default_hyperparameters": "calibrate.hyper",
    "carbcal.calibrate.map_estimates": "calibrate.map",
    "carbcal.calibrate.calibrate_independent": "calibrate.independent",
    "carbcal.calibrate.hpd_intervals": "calibrate.hpd",
    "carbcal.calibrate.spd": "calibrate.spd",
    "carbcal.slicesample.slice_sample": "slicesample.sample",
    "carbcal.dpmm.run_chain": "dpmm.chain",
    "carbcal.dpmm.update_theta": "dpmm.theta",
    "carbcal.dpmm.walker_reallocate": "dpmm.walker_realloc",
    "carbcal.dpmm.polya_reallocate": "dpmm.polya_realloc",
    "carbcal.dpmm.walker_update_weights": "dpmm.sticks",
    "carbcal.dpmm._extend_sticks": "dpmm.sticks",
    "carbcal.dpmm._trim_tail_sticks": "dpmm.sticks",
    "carbcal.dpmm.update_cluster_params": "dpmm.cluster_params",
    "carbcal.dpmm.update_alpha": "dpmm.alpha",
    "carbcal.dpmm._update_alpha_walker": "dpmm.alpha",
    "carbcal.dpmm.update_mu_phi": "dpmm.mu_phi",
    "carbcal.dpmm._store_snapshot": "dpmm.snapshot",
    "carbcal.dpmm.PosteriorSamples.save": "dpmm.save",
    "carbcal.predictive.predictive_density": "predictive.density",
    "carbcal.predictive.cluster_count_posterior": "predictive.count_posterior",
    "carbcal.cli._write_age_summaries": "cli.age_summaries",
    "carbcal.cli._write_grid": "cli.write_grid",
    "carbcal.cli._write_hpd": "cli.write_hpd",
    "carbcal.simstudy.run_study": "simstudy.run",
    "carbcal.simstudy._execute_run": "simstudy.execute_run",
}


def layer_of(key: str) -> str:
    return key.split(".")[1]


class Aggregates:
    """Per-function and per-phase totals plus work counters."""

    def __init__(self):
        self.functions: dict[str, list] = {}  # key -> [calls, total_s, self_s]
        self.phases: dict[str, float] = {}
        self.counters: dict[str, float] = {}

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def as_dict(self) -> dict:
        return {"functions": self.functions, "phases": self.phases, "counters": self.counters}


class Tracer:
    """Keeps the open-span stack and the aggregates of one process."""

    def __init__(self, worker_dir: str):
        self.worker_dir = worker_dir
        self.in_worker = False
        self.missing: set[str] = set()
        self.wrapped: list[str] = []
        self._reset()

    def _reset(self) -> None:
        self.agg = Aggregates()
        # Each frame is [time covered by child spans]; frame 0 is the root.
        self.stack = [[0.0]]
        self.active: dict[str, int] = {}

    def after_fork_in_child(self) -> None:
        self.in_worker = True
        self._reset()

    def enter_span(self, key: str) -> tuple:
        """Open a span that is closed by ``exit_span``; used around imports."""
        self.stack.append([0.0])
        return key, perf_counter()

    def exit_span(self, token: tuple) -> float:
        key, start = token
        return self._close(key, None, start)

    def _close(self, key: str, phase: str | None, start: float) -> float:
        duration = perf_counter() - start
        frame = self.stack.pop()
        self.stack[-1][0] += duration
        stats = self.agg.functions.get(key)
        if stats is None:
            stats = self.agg.functions[key] = [0, 0.0, 0.0]
        stats[0] += 1
        stats[1] += duration
        stats[2] += duration - frame[0]
        if phase is not None:
            depth = self.active[phase] - 1
            self.active[phase] = depth
            if depth == 0:
                self.agg.phases[phase] = self.agg.phases.get(phase, 0.0) + duration
        return duration

    def wrap(self, fn, key: str, before=None, after=None):
        phase = PHASES.get(key)

        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            self.stack.append([0.0])
            if phase is not None:
                self.active[phase] = self.active.get(phase, 0) + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self._close(key, phase, start)
            if after is not None:
                try:
                    after(args, kwargs, result, duration)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    self.missing.add(key)  # carbcal changed under the hook
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__module__ = fn.__module__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    # -- hooks that record work counts at layer boundaries ------------------

    def _count_slice_evals(self, args):
        log_density = args[0] if args else None
        if not callable(log_density):
            self.missing.add("carbcal.slicesample.slice_sample")
            return args
        counters = self.agg.counters

        def counted(x):
            counters["slice_evals"] = counters.get("slice_evals", 0.0) + 1.0
            return log_density(x)

        return (counted,) + tuple(args[1:])

    def _after_run_chain(self, args, kwargs, samples, duration):
        cfg = args[2] if len(args) > 2 else kwargs["cfg"]
        agg = self.agg
        agg.count("chains", 1)
        agg.count("sweeps", cfg.n_iter)
        agg.count("stored", samples.n_stored)
        agg.count("alpha_accepts", samples.alpha_accept_rate * cfg.n_iter)
        for snap in samples.clusters:
            agg.count("represented_sticks", len(snap.phi))
            agg.count("occupied_clusters", int((snap.counts > 0).sum()))

    def _after_predictive(self, args, kwargs, pred, duration):
        samples = args[0]
        self.agg.count("predictive_snapshots", samples.n_stored)
        self.agg.count("predictive_grid_points", len(pred.theta))

    def _after_save(self, args, kwargs, result, duration):
        directory = args[1] if len(args) > 1 else kwargs["directory"]
        size = sum(entry.stat().st_size for entry in os.scandir(directory) if entry.is_file())
        self.agg.count("save_bytes", size)

    def _after_run_study(self, args, kwargs, result, duration):
        self.agg.count("study_jobs", kwargs.get("jobs", args[6] if len(args) > 6 else 1))

    def _after_execute_run(self, args, kwargs, result, duration):
        task = args[0]
        self.agg.count("study_runs", 1)
        self.agg.count("study_dates", task[1])
        if self.in_worker:
            path = os.path.join(self.worker_dir, f"worker-{os.getpid()}-{task[2]}.json")
            dump = self.agg.as_dict()
            dump.update(busy_s=duration, missing=sorted(self.missing))
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(dump, fh)
            self._reset()

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function, at every module attribute bound to it."""
        import importlib

        modules = [importlib.import_module(name) for name in TRACED_MODULES]
        hooks = {
            "carbcal.slicesample.slice_sample": (self._count_slice_evals, None),
            "carbcal.dpmm.run_chain": (None, self._after_run_chain),
            "carbcal.predictive.predictive_density": (None, self._after_predictive),
            "carbcal.dpmm.PosteriorSamples.save": (None, self._after_save),
            "carbcal.simstudy.run_study": (None, self._after_run_study),
            "carbcal.simstudy._execute_run": (None, self._after_execute_run),
        }
        replacements = {}  # id(original) -> wrapper
        for module in modules:
            for name, value in vars(module).items():
                if not callable(value) or isinstance(value, type):
                    continue
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                if not hasattr(value, "__code__"):
                    continue
                key = f"{module.__name__}.{name}"
                if key in UNTRACED:
                    continue
                before, after = hooks.get(key, (None, None))
                replacements[id(value)] = self.wrap(value, key, before, after)
                self.wrapped.append(key)
        for key in sorted(TRACED_METHODS):
            module_name, class_name, method = key.rsplit(".", 2)
            cls = getattr(sys.modules[module_name], class_name, None)
            fn = getattr(cls, method, None) if cls is not None else None
            if fn is None:
                continue
            before, after = hooks.get(key, (None, None))
            setattr(cls, method, self.wrap(fn, key, before, after))
            self.wrapped.append(key)
        # Rebind every module attribute that names a wrapped function, so that
        # ``from carbcal.x import f`` call sites go through the wrapper too.
        for module in modules:
            for name, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    setattr(module, name, wrapper)
        self.missing.update(set(PHASES) - set(self.wrapped))
        os.register_at_fork(after_in_child=self.after_fork_in_child)


def main(argv: list[str]) -> int:
    start = perf_counter()
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py OUT.json WORKER_DIR -- <carbcal arguments>", file=sys.stderr)
        return 1
    out_path, worker_dir, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(worker_dir)
    token = tracer.enter_span("setup.import")
    import carbcal.cli

    tracer.exit_span(token)
    tracer.install()
    try:
        code = carbcal.cli.main(cli_args)
    except SystemExit as exc:  # usage errors exit through argparse
        code = exc.code if isinstance(exc.code, int) else 1
    root_s = perf_counter() - start
    self_by_layer: dict[str, float] = {}
    for key, (_, _, self_s) in tracer.agg.functions.items():
        layer = "setup" if key == "setup.import" else layer_of(key)
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + self_s
    self_by_layer["trace"] = root_s - tracer.stack[0][0]
    report = tracer.agg.as_dict()
    report.update(
        exit_code=code,
        root_s=root_s,
        self_by_layer=self_by_layer,
        missing=sorted(tracer.missing),
        open_spans=len(tracer.stack) - 1,
    )
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
