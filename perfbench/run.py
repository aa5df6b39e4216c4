"""rbt-bench performance benchmark: one run of one workload.

    python3 perfbench/run.py --workload sweep-narrow --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from ``src/`` and
uses only the standard library.  A run

1. solves and saves the uniform-opponent Q-table and, for episode workloads,
   runs a reference pass at a fixed seed whose output files must match the
   SHA-256 digests in ``reference.json``;
2. until ``--seconds`` have passed, repeats: time the host kernel, set up once
   (fresh import of the package, solve and save the Q-table), run one pass of
   the workload's command.  Each pass imports the package anew, so it starts as
   cold as a new process.  Every pass of a run uses the same inputs, made from
   ``--seed``, so their output files must be byte-identical.

Timings are scaled to the reference host speed (see ``host_kernel``); the raw
values are printed too and kept in the run's ``result.json``.  With
``--trace 1`` half of the time goes to untraced passes and half to traced
ones, which give the per-module numbers.  Metric names and units come from
``BENCHMARK.json``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything a run
writes goes under ``.perfbench-work/<workload>/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import typing
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

MODULES = ("game", "opponents", "solver", "belief", "policy", "env", "metrics", "cli")
MIN_PASSES = 3
REFERENCE_SEED = 42  # the seed of the reference pass whose digests reference.json holds
MAX_T = 5  # X places at most five marks, so an episode has at most five decisions
# Median of host_speed_sample() on the reference host (2 vCPU x86_64 at
# 2.0 GHz, Python 3.11.7), over 15 runs of 30 s.
HOST_KERNEL_REF_S = 0.050
# On that host a pass slowed by the kernel's slowdown to this power: the
# log-log slope of pass wall time on kernel time over 60 sweep-narrow passes.
# The package's work suffers less than the kernel's when the host is busy.
HOST_SLOWDOWN_EXPONENT = 0.75

# Functions reported as <name>.{calls,self_s,us_per_call}.
FUNCTIONS = (
    "belief.update", "belief.predict",
    "policy.mixture_values", "policy.alt_values", "policy.argmax_set",
    "env.sample_window", "env.run_episode",
    "opponents.reply_distribution", "opponents.game_value",
    "solver.solve_q", "solver.save_qtable", "solver.load_qtable",
    "game.enumerate_reachable_states",
    "metrics.mean_ci95", "metrics.aggregate_by_timestep",
    "cli.write_trace", "cli.render_returns_svg",
)
# Modules whose summed self time is reported; "bench" is this script's own
# per-table span on solve-grid.
SELF_MODULES = MODULES + ("bench",)


def host_kernel() -> float:
    """Time a fixed piece of pure-Python work shaped like an episode's hot path.

    On a shared host the CPU itself runs slower at times (process CPU time
    grows with wall time), by up to twice over tens of seconds.  Timing this
    kernel next to every pass measures how fast the host ran then, and the
    pass's timings are scaled to the reference host speed (PassResult.scale).
    The kernel does not touch the package, so no change to it can move the
    scale.
    """
    rng = random.Random(0)
    t0 = time.perf_counter()
    table = {k: [(k * 31 + a) % 17 / 17.0 for a in range(9)] for k in range(0, 19683, 8)}
    keys = list(table)
    seen = set()
    for _ in range(1200):
        mass = {k: rng.random() for k in rng.sample(keys, 12)}
        total = math.fsum(mass.values())
        belief = {k: p / total for k, p in sorted(mass.items())}
        values = [0.0] * 9
        for k, p in belief.items():
            row = table[k]
            for a in range(9):
                values[a] += p * row[a]
        cutoff = max(values) - 1e-9
        frozenset(a for a, v in enumerate(values) if v >= cutoff)
        seen.add(tuple(belief.items()))
    return time.perf_counter() - t0


def fresh_package() -> SimpleNamespace:
    """Import rbtbench anew, so no cache survives from an earlier pass."""
    # typing memoizes Union[...] and Optional[...] on the package's classes;
    # left alone, those entries keep every earlier import, caches and all,
    # alive and peak RSS grows with each pass.
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    for name in [m for m in sys.modules if m == "rbtbench" or m.startswith("rbtbench.")]:
        del sys.modules[name]
    importlib.import_module("rbtbench.cli")
    return SimpleNamespace(**{m: sys.modules["rbtbench." + m] for m in MODULES})


def sha256_file(path: Path) -> str | None:
    if not path.is_file():
        return None
    data = path.read_bytes()
    if path.name == "manifest.json":
        # The manifest embeds the --q path, which depends on where the run is.
        manifest = json.loads(data)
        manifest["qtable"] = "<qtable>"
        data = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()
    return hashlib.sha256(data).hexdigest()


@dataclass
class PassResult:
    wall_ns: int
    op_ns: list[int]
    attempted: int
    failed: int
    digests: dict[str, str | None]
    errors: list[str] = field(default_factory=list)  # wrong or missing output
    failures: list[str] = field(default_factory=list)  # operations that failed
    steps: int = 0
    trace_bytes: int = 0
    setup_s: float = 0.0
    kernel_s: tuple[float, float] = (HOST_KERNEL_REF_S, HOST_KERNEL_REF_S)  # host speed before and after
    # traced passes only
    tracer: Tracer | None = None
    results: list = field(default_factory=list)
    support_sizes: list[int] = field(default_factory=list)

    @property
    def scale(self) -> float:
        """Factor that takes this pass's timings to the reference host speed."""
        return (HOST_KERNEL_REF_S / statistics.fmean(self.kernel_s)) ** HOST_SLOWDOWN_EXPONENT


class EpisodeProbe:
    """Stands in for env.run_episode: times each episode at that boundary.

    In traced passes it also keeps the results, for the workload properties,
    which are computed after the pass so that their cost lands in no span.
    """

    def __init__(self, inner, keep_results: bool):
        self.inner = inner
        self.op_ns: list[int] = []
        self.steps = 0
        self.results = [] if keep_results else None

    def __call__(self, config, q):
        t0 = time.perf_counter_ns()
        result = self.inner(config, q)
        self.op_ns.append(time.perf_counter_ns() - t0)
        self.steps += len(result.steps)
        if self.results is not None:
            self.results.append(result)
        return result


def support_probe(inner, sizes: list[int]):
    """Record the support of each belief passed to `inner` (traced passes only)."""

    def probe(belief, *args):
        sizes.append(len(belief))
        return inner(belief, *args)

    return probe


class EpisodeWorkload:
    """A workload that runs one rbt-bench command in-process through cli.main."""

    reference_inputs = REFERENCE_SEED
    op_span = "env.run_episode"

    def __init__(self, name: str, episodes: int, outputs: tuple[str, ...], argv):
        self.name = name
        self.episodes = episodes
        self.outputs = outputs
        self._argv = argv  # (q_path, seed, out_dir) -> argv

    def inputs(self, seed: int) -> int:
        """The command's --seed for every pass of a run."""
        return random.Random(seed).randrange(1_000_000)

    def run_pass(self, cmd_seed: int, q_path: Path, out_dir: Path, tracer: Tracer | None = None) -> PassResult:
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        pkg = fresh_package()
        main = pkg.cli.main
        sizes: list[int] = []
        if tracer is not None:
            tracer.install(pkg)
            main = tracer.wrap("cli.main", main)
            pkg.env.update = support_probe(pkg.env.update, sizes)
            pkg.env.predict = support_probe(pkg.env.predict, sizes)
        probe = EpisodeProbe(pkg.env.run_episode, keep_results=tracer is not None)
        pkg.env.run_episode = probe
        argv = self._argv(str(q_path), cmd_seed, out_dir)
        sink = io.StringIO()
        gc.collect()
        t0 = time.perf_counter_ns()
        with redirect_stdout(sink), redirect_stderr(sink):
            try:
                code = main(argv)
            except Exception as exc:  # a failing pass is counted, and the run goes on
                code = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter_ns() - t0
        failures = [] if code == 0 else [f"{self.name} pass exited with {code}: {sink.getvalue()[-300:]}"]
        trace = out_dir / "steps.jsonl"
        return PassResult(
            wall_ns=wall,
            op_ns=probe.op_ns,
            attempted=self.episodes,
            # episodes the failing command did not complete
            failed=0 if code == 0 else self.episodes - len(probe.op_ns),
            digests={name: sha256_file(out_dir / name) for name in self.outputs},
            failures=failures,
            steps=probe.steps,
            trace_bytes=trace.stat().st_size if trace.is_file() else 0,
            tracer=tracer,
            results=probe.results or [],
            support_sizes=sizes,
        )


class SolveGridWorkload:
    """solve_q -> save_qtable -> load_qtable + compare, for 21 opponent models."""

    name = "solve-grid"
    SPECS = ("uniform", "minimax") + tuple(f"eps:0.{k:02d}" for k in range(5, 100, 5))
    outputs = ("q_uniform.json", "q_minimax.json")
    reference_inputs = None  # every pass writes the digested tables itself
    op_span = "bench.table"

    def inputs(self, seed: int) -> tuple[str, ...]:
        """The order in which the tables are solved; caches fill in this order."""
        order = list(self.SPECS)
        random.Random(seed).shuffle(order)
        return tuple(order)

    def run_pass(self, order, q_path: Path, out_dir: Path, tracer: Tracer | None = None) -> PassResult:
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        pkg = fresh_package()
        solve, save, load = pkg.solver.solve_q, pkg.solver.save_qtable, pkg.solver.load_qtable
        parse = pkg.cli.parse_opponent
        if tracer is not None:
            tracer.install(pkg)
            solve = tracer.wrap("solver.solve_q", solve)
            save = tracer.wrap("solver.save_qtable", save)
            load = tracer.wrap("solver.load_qtable", load)
        failures: list[str] = []
        mismatched: list[str] = []

        def table(spec: str) -> None:
            path = out_dir / f"q_{spec.replace(':', '_')}.json"
            try:
                q = solve(parse(spec))
                save(q, path)
                loaded = load(path)
            except (ValueError, OSError) as exc:  # counted as a failed table; the pass goes on
                failures.append(f"{spec}: {type(exc).__name__}: {exc}")
                return
            if loaded.entries != q.entries or loaded.opponent != q.opponent:
                mismatched.append(spec)

        if tracer is not None:
            table = tracer.wrap("bench.table", table)
        op_ns = []
        gc.collect()
        t_pass = time.perf_counter_ns()
        for spec in order:
            t0 = time.perf_counter_ns()
            table(spec)
            op_ns.append(time.perf_counter_ns() - t0)
        wall = time.perf_counter_ns() - t_pass
        return PassResult(
            wall_ns=wall,
            op_ns=op_ns,
            attempted=len(order),
            failed=len(failures),
            digests={name: sha256_file(out_dir / name) for name in self.outputs},
            errors=[f"solve-grid: {spec}: reloaded table differs from the solved one" for spec in mismatched],
            failures=failures,
            tracer=tracer,
        )


WORKLOADS = {
    "sweep-narrow": EpisodeWorkload(
        "sweep-narrow",
        episodes=4 * 1000,
        outputs=("returns.csv", "timestep_metrics.csv", "returns.svg", "manifest.json"),
        argv=lambda q, seed, out: [
            "sweep", "--q", q, "--windows", "1x1,2x1", "--episodes", "1000",
            "--seed", str(seed), "--out-dir", str(out),
        ],
    ),
    "trace-wide": EpisodeWorkload(
        "trace-wide",
        episodes=2000,
        outputs=("returns.csv", "steps.jsonl"),
        argv=lambda q, seed, out: [
            "run", "--q", q, "--window", "3x3", "--policy", "mixture", "--episodes", "2000",
            "--seed", str(seed), "--out", str(out / "returns.csv"), "--trace", str(out / "steps.jsonl"),
        ],
    ),
    "solve-grid": SolveGridWorkload(),
}


def setup_once(q_path: Path, tracer: Tracer | None = None) -> float:
    """Import the package and solve and save the table the episode commands load."""
    gc.collect()
    t0 = time.perf_counter()
    pkg = fresh_package()
    solve, save = pkg.solver.solve_q, pkg.solver.save_qtable
    if tracer is not None:
        tracer.install(pkg)
        solve = tracer.wrap("solver.solve_q", solve)
        save = tracer.wrap("solver.save_qtable", save)
    save(solve(pkg.opponents.UniformRandomOpponent()), q_path)
    return time.perf_counter() - t0


def host_speed_sample() -> float:
    """Least of three host_kernel() times: host noise only ever slows the kernel."""
    return min(host_kernel() for _ in range(3))


def run_passes(workload, inputs, q_path: Path, out_dir: Path, seconds: float, minimum: int,
               traced: bool) -> list[PassResult]:
    """Repeat host kernel, set-up and pass until `seconds` have passed."""
    passes: list[PassResult] = []
    t_end = time.monotonic() + seconds
    kernel_before = host_speed_sample()
    while len(passes) < minimum or time.monotonic() < t_end:
        setup_s = setup_once(q_path)
        p = workload.run_pass(inputs, q_path, out_dir, Tracer() if traced else None)
        kernel_after = host_speed_sample()
        p.setup_s = setup_s
        p.kernel_s = (kernel_before, kernel_after)
        kernel_before = kernel_after
        passes.append(p)
    return passes


def end_to_end(passes: list[PassResult], scaled: bool) -> dict[str, float]:
    """End-to-end metrics of the untraced passes, scaled to the reference host speed or raw."""
    def k(p: PassResult) -> float:
        return p.scale if scaled else 1.0

    op_ns = [t * k(p) for p in passes for t in p.op_ns]
    return {
        "setup_s": statistics.median(p.setup_s * k(p) for p in passes),
        "wall_s": statistics.median(p.wall_ns * k(p) for p in passes) / 1e9,
        "ops_per_s": len(op_ns) / (sum(op_ns) / 1e9),
        "op_ms_p50": statistics.median(op_ns) / 1e6,
        "op_ms_p90": statistics.quantiles(op_ns, n=10)[8] / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def episode_properties(results: list) -> dict[str, float]:
    """Outcome mix, posterior support per t and belief repeat share of one pass."""
    props: dict[str, float] = {f"env.outcome.{o}": 0 for o in ("win", "loss", "draw", "invalid_move")}
    sizes: list[list[int]] = [[] for _ in range(MAX_T)]
    seen: set = set()
    decisions = repeats = 0
    for result in results:
        props[f"env.outcome.{result.outcome.value}"] += 1
        for step in result.steps:
            sizes[step.t].append(step.belief_support_size)
            key = tuple(step.belief.items())
            decisions += 1
            repeats += key in seen
            seen.add(key)
    for t, at_t in enumerate(sizes):
        props[f"belief.support_mean.t{t}"] = statistics.fmean(at_t) if at_t else 0
        props[f"belief.support_max.t{t}"] = max(at_t, default=0)
    props["policy.belief_repeat_share"] = repeats / decisions if decisions else 0
    return props


def per_layer(setup_tracer: Tracer, traced: list[PassResult], untraced: list[PassResult], q_path: Path) -> dict[str, float]:
    """Per-module metrics: the traced set-up once plus one traced pass.

    Every traced pass has the same inputs, so call counts are those of any
    one pass; self times are the median over the traced passes.
    """
    setup = setup_tracer.by_name()
    passes = [p.tracer.by_name() for p in traced]
    out: dict[str, float] = {}

    def calls_and_self(match) -> tuple[int, float]:
        calls = sum(c for name, (c, _) in setup.items() if match(name))
        calls += sum(c for name, (c, _) in passes[0].items() if match(name))
        self_ns = sum(s for name, (_, s) in setup.items() if match(name))
        self_ns += statistics.median(sum(s for name, (_, s) in p.items() if match(name)) for p in passes)
        return calls, self_ns / 1e9

    for fn in FUNCTIONS:
        calls, self_s = calls_and_self(lambda name: name == fn)
        out[f"{fn}.calls"] = calls
        out[f"{fn}.self_s"] = self_s
        out[f"{fn}.us_per_call"] = self_s / calls * 1e6 if calls else 0
    for module in SELF_MODULES:
        out[f"{module}.self_s"] = calls_and_self(lambda name: name.split(".")[0] == module)[1]

    first = traced[0]
    sizes = first.support_sizes
    out["belief.support_mean"] = statistics.fmean(sizes) if sizes else 0
    out["belief.support_max"] = max(sizes, default=0)
    out["belief.states_touched"] = sum(sizes)
    out["env.steps"] = first.steps
    out.update(episode_properties(first.results))
    out["solver.qtable_bytes"] = q_path.stat().st_size
    out["solver.states"] = len(json.loads(q_path.read_text())["entries"])
    out["cli.trace_bytes"] = first.trace_bytes
    traced_wall = statistics.median(p.wall_ns * p.scale for p in traced) / 1e9
    untraced_wall = statistics.median(p.wall_ns * p.scale for p in untraced) / 1e9
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    out["trace.spans"] = len(first.tracer)
    return out


def check_digests(label: str, actual: dict, expected: dict, problems: list[str]) -> None:
    for name, want in expected.items():
        got = actual.get(name)
        if got != want:
            problems.append(f"{label}: {name} has digest {got}, expected {want}")


def report(metrics: dict[str, float], units: dict[str, str], prefix: str = "") -> None:
    for name, value in metrics.items():
        print(f"{prefix}{name} = {value:.6g} {units.get(name, '')}".rstrip())


def run_environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rbtbench" / "__init__.py").is_file():
        print(f"error: no rbtbench package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    q_path = work / "q_uniform.json"
    problems: list[str] = []

    setup_once(q_path)
    if workload.reference_inputs is not None:
        ref = workload.run_pass(workload.reference_inputs, q_path, work / "reference")
        problems += ref.errors + ref.failures
        check_digests(f"{workload.name} reference pass", ref.digests, reference[workload.name], problems)

    inputs = workload.inputs(args.seed)
    out_dir = work / "out"
    traced: list[PassResult] = []
    if args.trace:
        setup_tracer = Tracer()
        setup_once(work / "q_traced_setup.json", setup_tracer)
        untraced = run_passes(workload, inputs, q_path, out_dir, args.seconds / 2, 1, False)
        traced = run_passes(workload, inputs, q_path, out_dir, args.seconds / 2, 1, True)
    else:
        untraced = run_passes(workload, inputs, q_path, out_dir, args.seconds, MIN_PASSES, False)

    for p in untraced + traced:
        problems += p.errors
        if p.digests != untraced[0].digests:
            problems.append(f"{workload.name}: output differs between passes with the same inputs")
        if workload.reference_inputs is None:
            check_digests(workload.name, p.digests, reference[workload.name], problems)
    check_digests("setup", {"q_uniform.json": sha256_file(q_path)}, reference["setup"], problems)
    attempted = sum(p.attempted for p in untraced + traced)
    failed = sum(p.failed for p in untraced + traced)

    metrics = end_to_end(untraced, scaled=True)
    raw = end_to_end(untraced, scaled=False)
    env = run_environment()
    print("# environment: " + json.dumps(env, sort_keys=True))
    print(f"# {workload.name}: seed {args.seed}, {len(untraced)} untraced and {len(traced)} traced passes, "
          f"host speed scale median {statistics.median(p.scale for p in untraced):.4g}")
    report(metrics, e2e_units)
    report(raw, e2e_units, prefix="raw.")
    print(f"failed_frac = {failed}/{attempted} = {failed / attempted:.6g}")
    for message in sorted({m for p in untraced + traced for m in p.failures}):
        print(f"# failed: {message}")
    layer: dict[str, float] = {}
    if args.trace:
        layer = per_layer(setup_tracer, traced, untraced, q_path)
        report(layer, layer_units)
        first, op_span = traced[0].tracer, workload.op_span
        if op_span in first.names and first.subtree_adds_up(first.first(op_span)):
            print(f"# spot check: self times under the first {op_span} span add up to its span")
        else:
            problems.append(f"spot check: self times under the first {op_span} span do not add up to it")
        # The spans of the set-up and of the pass whose counts are reported;
        # all traced passes together run to a hundred megabytes.
        with open(work / "spans.tsv", "w", encoding="utf-8") as fh:
            setup_tracer.write(fh, "setup")
            first.write(fh, "pass0")

    for message in dict.fromkeys(problems):
        print(f"error: {message}", file=sys.stderr)
    shown, units = (layer, layer_units) if args.trace else (metrics, e2e_units)
    if set(shown) != set(units):
        print(f"error: metrics {sorted(set(shown) ^ set(units))} disagree with BENCHMARK.json", file=sys.stderr)
        return 3
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in shown.items()},
    }
    passes = [{"wall_s": p.wall_ns / 1e9, "setup_s": p.setup_s, "kernel_s": p.kernel_s} for p in untraced]
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "seed": args.seed, "end_to_end": metrics, "raw_end_to_end": raw,
                   "per_layer": layer, "passes": passes, "problems": problems, **result},
                  fh, indent=2, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
