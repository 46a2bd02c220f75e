"""End-to-end benchmark of the minsimplex command line.

Run from the repository root:

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 30 --trace 0

One closed-loop caller drives `minsimplex.cli.main(argv)` in-process: each
command starts after the previous one returns, with stdout and stderr
captured, and every output is checked (see workloads.py). A pass is one run
over the workload's command list; after a warm-up pass, passes repeat until
the next one would end past --seconds.

--trace 0 prints the end-to-end metrics: set-up time, median pass wall time,
median pass CPU time (with the free search's worker processes), and peak
RSS. The three times are scaled to a nominal machine speed that is sampled
while they run (see speed.py); the raw wall times go to the record.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the median traced pass (see tracing.py) plus the tracing
overhead, all unscaled. The last stdout line is one JSON object; a record
with the machine, the settings and every pass is written under .perfbench/.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from importlib import metadata

import speed
import tracing
import workloads

SETUP_REPEATS = 5
END_TO_END = ("setup_s", "solve_s", "cpu_s", "peak_rss_mib")
PER_LAYER = (
    "geometry.enumerate_s", "geometry.candidates", "geometry.rank_tests",
    "geometry.prune_ratio", "geometry.simplexes", "geometry.hit_ratio",
    "matroid.enumerate_s", "matroid.enumerate_calls", "matroid.candidates",
    "matroid.rank_tests", "matroid.prune_ratio", "matroid.circuits", "matroid.hit_ratio",
    "exactla.rank_s", "exactla.rank_calls", "exactla.nullspace_s", "exactla.nullspace_calls",
    "constructions.build_s", "constructions.rank_tests", "geometry.project_s",
    "stoichiometry.parse_s", "stoichiometry.reactions_s", "stoichiometry.reactions_calls",
    "search.canonical_s", "search.canonical_calls", "search.witnesses", "search.dedup_ratio",
    "search.linear_s", "search.families", "search.families_per_s",
    "search.free_s", "search.masks", "search.masks_per_s",
    "cli.self_s", "import.numpy_s", "import.minsimplex_s",
    "trace.solve_s", "trace.overhead_s",
)


def unit(metric: str) -> str:
    if metric == "peak_rss_mib":
        return "MiB"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def fresh_import(root: str) -> tuple[float, float, float]:
    """(wall, numpy, rest of minsimplex) seconds for a new interpreter to import minsimplex.cli."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import minsimplex.cli"],
        cwd=root, env=env, capture_output=True, text=True, check=True,
    )
    wall = time.perf_counter() - start
    # Lines read "import time: self [us] | cumulative | <indent>module"; the
    # outermost minsimplex module has the largest cumulative time.
    numpy_us = total_us = 0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative, name = int(parts[1]), parts[2].strip()
        if name == "numpy":
            numpy_us = cumulative
        if name.split(".")[0] == "minsimplex":
            total_us = max(total_us, cumulative)
    return wall, numpy_us / 1e6, (total_us - numpy_us) / 1e6


def run_pass(main, commands, tracer=None, probe=None):
    """Run every command once; returns (wall s, cpu s, [(command, exit code, stdout, stderr)]).

    With a speed.Probe, the probe samples while the commands run; the times
    returned still include its handler's time, probe.spent.
    """
    for cmd in commands:
        for path in cmd.outputs:
            if os.path.exists(path):
                os.remove(path)
    gc.collect()
    with probe or nullcontext():
        wall, cpu, results = _timed_pass(main, commands, tracer)
    return wall, cpu, results


def _timed_pass(main, commands, tracer):
    before = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    wall = 0.0
    results = []
    for cmd in commands:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rec = tracer.open("cli") if tracer else None
            start = time.perf_counter()
            try:
                code = main(cmd.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = None
                err.write(traceback.format_exc())
            finally:
                if rec:
                    tracer.close(rec)
                    wall += rec[2] - rec[1]
                else:
                    wall += time.perf_counter() - start
        results.append((cmd, code, out.getvalue(), err.getvalue()))
    after = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = sum(a.ru_utime + a.ru_stime - b.ru_utime - b.ru_stime for a, b in zip(after, before))
    return wall, cpu, results


def check_pass(results) -> list[str]:
    """One message per command whose exit code or output is wrong."""
    failures = []
    for cmd, code, out, err in results:
        if code != 0:
            why = f"exit code {code}: {err.strip()[-400:]}"
        else:
            try:
                why = cmd.check(out)
            except Exception as exc:  # a malformed output must count, not abort the run
                why = f"check raised {exc!r}"
        if why:
            failures.append(f"{' '.join(cmd.argv)}: {why}")
    return failures


class Runner:
    def __init__(self, main, commands):
        self.main = main
        self.commands = commands
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, tracer=None, probe=None) -> tuple[float, float]:
        if tracer is None:
            wall, cpu, results = run_pass(self.main, self.commands, probe=probe)
        else:
            with tracing.installed(tracer):
                wall, cpu, results = run_pass(self.main, self.commands, tracer)
        self.attempted += len(results)
        for message in check_pass(results):
            print(f"perfbench: wrong output: {message}", file=sys.stderr)
            self.failures.append(message)
        return wall, cpu


def measure(runner: Runner, seconds: float) -> dict:
    runner.run()  # warm-up
    walls, cpus, scales = [], [], []
    start = time.perf_counter()
    while True:
        probe = speed.Probe()
        wall, cpu = runner.run(probe=probe)
        walls.append(wall - probe.spent)
        cpus.append(cpu - probe.spent)
        scales.append(probe.scale())
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "solve_s": statistics.median(w * k for w, k in zip(walls, scales)),
        "cpu_s": statistics.median(c * k for c, k in zip(cpus, scales)),
        "peak_rss_mib": max(self_kib, child_kib) / 1024,
    }
    raw = {"solve_s": statistics.median(walls), "cpu_s": statistics.median(cpus)}
    return {"metrics": metrics, "raw": raw,
            "passes": {"wall_s": walls, "cpu_s": cpus, "scale": scales}}


def measure_traced(runner: Runner, seconds: float) -> dict:
    runner.run()  # warm-up
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(runner.run()[0])
        tracer = tracing.Tracer()
        wall = runner.run(tracer)[0]
        traced.append((wall, tracing.layer_metrics(tracer), tracer.spans))
        pair = statistics.median(plain) + statistics.median(t[0] for t in traced)
        if time.perf_counter() - start + pair > seconds:
            break
    wall, metrics, spans = sorted(traced, key=lambda t: t[0])[(len(traced) - 1) // 2]
    metrics["trace.solve_s"] = wall
    metrics["trace.overhead_s"] = wall - statistics.median(plain)
    return {
        "metrics": metrics,
        "passes": {"wall_s": plain, "traced_wall_s": [t[0] for t in traced]},
        "spans": spans,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "minsimplex", "cli.py")):
        print("perfbench: src/minsimplex not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from minsimplex import cli

    state = os.path.join(root, ".perfbench")
    workdir = os.path.join(state, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setups, setup_scales, imports = [], [], []
        for _ in range(SETUP_REPEATS):
            with speed.Probe() as probe:
                start = time.perf_counter()
                wall, numpy_s, rest_s = fresh_import(root)
                shutil.rmtree(workdir, ignore_errors=True)
                os.makedirs(workdir)
                commands = workloads.generate(args.workload, args.seed, workdir)
                setups.append(time.perf_counter() - start - probe.spent)
            setup_scales.append(probe.scale())
            imports.append((numpy_s, rest_s))

        runner = Runner(cli.main, commands)
        if args.trace:
            result = measure_traced(runner, args.seconds)
            result["metrics"]["import.numpy_s"] = statistics.median(i[0] for i in imports)
            result["metrics"]["import.minsimplex_s"] = statistics.median(i[1] for i in imports)
            names = PER_LAYER
        else:
            result = measure(runner, args.seconds)
            result["metrics"]["setup_s"] = statistics.median(
                s * k for s, k in zip(setups, setup_scales))
            result["raw"]["setup_s"] = statistics.median(setups)
            names = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    settings = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "search_workers": workloads.SEARCH_WORKERS,
        "setup_repeats": SETUP_REPEATS,
        "passes": len(result["passes"]["wall_s"]),
        "commands_per_pass": len(runner.commands),
    }
    metrics = {name: result["metrics"][name] for name in names}
    failed = len(runner.failures)
    record = dict(settings, setup_s=setups, setup_scale=setup_scales, metrics=metrics,
                  raw=result.get("raw"), passes=result["passes"],
                  attempted=runner.attempted, failures=runner.failures)
    os.makedirs(os.path.join(state, "results"), exist_ok=True)
    stem = os.path.join(state, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(stem + ".spans.jsonl", "w", encoding="utf-8") as fh:
            for span in result["spans"]:
                fh.write(json.dumps(span) + "\n")

    print("# " + " ".join(f"{k}={v}" for k, v in settings.items()))
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit(name)}")
    for name, value in result.get("raw", {}).items():
        print(f"{name + ' unscaled':32s} {value:14.6g} {unit(name)}")
    print(f"{'failed_ratio':32s} {failed / runner.attempted:14.6g} ratio "
          f"({failed} of {runner.attempted} commands)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
