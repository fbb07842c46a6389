#!/usr/bin/env python3
"""Benchmark for the polarlex CLI.

Run from the root of a polarlex checkout:

    python3 polarbench/run.py --workload hashtag-100k --seed 1 --seconds 20 --trace 0

The benchmark writes a workload's inputs from --seed (set-up, done three
times and checked to give identical bytes), then runs the workload's polarlex
commands as child processes, one after another, in a closed loop with one
client until --seconds would be exceeded (at least one iteration). Every
iteration is checked: exit code 0, the same artifact digests as the first
iteration, and user accuracy at or above the workload's floor.

--trace 0 reports the end-to-end metrics, each the median over iterations:
  wall_s         wall time of the timed commands (eval only on hashtag-staged)
  tweets_per_s   corpus tweets / wall_s
  peak_rss_mb    largest peak RSS of any child process in an iteration
  user_accuracy  soft_accuracy in eval_overall.csv against the planted users
  setup_s        time to generate and write the inputs (median of three)
The error rate is "failed" / "attempted" in the result line.

--trace 1 does the same untraced loop, then runs the same commands once
in-process with polarlex's public functions wrapped in spans (spans.py), and
reports the per-layer split. cli.cpu_s is the untraced median CPU time of the
timed commands, cli.process_start.s the start-up cost of that many CLI
processes, and trace.overhead_s the traced wall time plus that start-up (which
the in-process run skips) minus the untraced median wall time.

The last line of standard output is one JSON object; the lines before it
give each timing's quartiles and sample count, input sizes, machine facts
and artifact digests. Results and spans also go to .polarbench/out/.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads, here and in every child process.
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections.abc import Callable  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import gen  # noqa: E402
import spans  # noqa: E402

SRC = Path("src").resolve()
WORK = Path(".polarbench/work")
OUT = Path(".polarbench/out")
SETUP_REPEATS = 3
PROCESS_START_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[Path, int], int]  # (directory, seed) -> number of tweets
    mode: str
    subcommands: tuple[str, ...]  # run in order; the last one is always eval
    timed_eval: bool  # whether eval counts towards wall_s
    accuracy_floor: float

    def timed(self, subcommand: str) -> bool:
        return subcommand != "eval" or self.timed_eval


# Why each workload exists is recorded in BENCHMARK.json.
PIPELINE = ("pipeline", "eval")
WORKLOADS = {
    "hashtag-100k": Workload(gen.hashtag, "hashtag", PIPELINE, False, 0.95),
    "token-zipf": Workload(gen.token_zipf, "token", PIPELINE, False, 0.95),
    "embedding-knn": Workload(gen.embedding_knn, "embedding", PIPELINE, False, 0.95),
    "hashtag-staged": Workload(gen.hashtag, "hashtag", spans.STAGES, True, 0.95),
}


@dataclass
class Iteration:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    accuracy: float = 0.0
    completed: bool = False  # every command exited 0
    errors: list[str] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def command_args(wl: Workload, subcommand: str, inputs: Path, run_dir: Path) -> list[str]:
    args = [subcommand, "--out-dir", str(run_dir), "--mode", wl.mode, "--kcore-k", "5",
            "--corpus", str(inputs / "corpus.jsonl"),
            "--seed-file", str(inputs / "seeds_community.tsv")]
    if wl.mode == "embedding":
        args += ["--embeddings", str(inputs / "embeddings.txt")]
    if subcommand == "eval":
        args += ["--gold", str(inputs / "gold_users.tsv")]
    return args


def run_child(args: list[str], env: dict[str, str], log: Path):
    """Run one CLI process; returns (exit code, wall s, its own rusage)."""
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "polarlex.cli", *args], env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        # wait4 gives this child's own rusage; RUSAGE_CHILDREN would be the
        # maximum over every child reaped so far.
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def file_digest(path: Path) -> str:
    if path.name == "manifest.json":
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest.pop("timestamp", None)
        data = json.dumps(manifest, sort_keys=True).encode()
    else:
        data = path.read_bytes()
    return hashlib.sha256(data).hexdigest()


def dir_digests(directory: Path) -> dict[str, str]:
    return {p.name: file_digest(p) for p in sorted(directory.iterdir()) if p.is_file()}


def soft_accuracy(run_dir: Path) -> float:
    lines = (run_dir / "eval_overall.csv").read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    return float(row["soft_accuracy"])


def artifact_digests(run_dir: Path, manifests: dict[str, str]) -> dict[str, str]:
    digests = dir_digests(run_dir)
    digests.pop("manifest.json", None)
    digests.update(manifests)
    return digests


def run_iteration(wl: Workload, inputs: Path, run_dir: Path, env: dict[str, str],
                  log: Path) -> tuple[Iteration, dict[str, str]]:
    shutil.rmtree(run_dir, ignore_errors=True)
    it = Iteration()
    manifests: dict[str, str] = {}
    for sub in wl.subcommands:
        code, wall, usage = run_child(command_args(wl, sub, inputs, run_dir), env, log)
        it.peak_rss_mb = max(it.peak_rss_mb, usage.ru_maxrss / 1024.0)
        if wl.timed(sub):
            it.wall_s += wall
            it.cpu_s += usage.ru_utime + usage.ru_stime
        if code != 0:
            it.errors.append(f"{sub}: exit code {code}")
            return it, {}
        manifests[f"manifest.json@{sub}"] = file_digest(run_dir / "manifest.json")
    it.completed = True
    try:
        it.accuracy = soft_accuracy(run_dir)
    except (OSError, IndexError, KeyError, ValueError) as exc:
        it.errors.append(f"unreadable eval_overall.csv: {exc!r}")
    if it.accuracy < wl.accuracy_floor:
        it.errors.append(f"user accuracy {it.accuracy} below floor {wl.accuracy_floor}")
    return it, artifact_digests(run_dir, manifests)


def setup(wl: Workload, seed: int, base: Path) -> tuple[Path, int, list[float], list[str]]:
    """Write the inputs SETUP_REPEATS times; they must come out byte-identical."""
    times, digests, errors = [], [], []
    tweets = 0
    for i in range(SETUP_REPEATS):
        target = base / f"inputs{i}"
        start = time.perf_counter()
        tweets = wl.make_inputs(target, seed)
        times.append(time.perf_counter() - start)
        digests.append(dir_digests(target))
    if any(d != digests[0] for d in digests):
        errors.append("set-up: the same seed gave different input bytes")
    for i in range(1, SETUP_REPEATS):
        shutil.rmtree(base / f"inputs{i}")
    return base / "inputs0", tweets, times, errors


def graph_sizes(run_dir: Path) -> dict[str, int]:
    def rows(name: str) -> int:
        with open(run_dir / name, encoding="utf-8") as fh:
            return sum(1 for line in fh if line.strip() and not line.startswith("#"))

    labeled = 0
    with open(run_dir / "lexicon_community.tsv", encoding="utf-8") as fh:
        for line in fh:
            labeled += line.rstrip("\n").endswith(("\tseed", "\tpropagated"))
    return {"nodes": rows("graph.nodes.tsv"), "edges": rows("graph.edges.tsv"),
            "labeled": labeled}


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def traced_run(wl: Workload, inputs: Path, run_dir: Path, run_id: str):
    """Run the workload's commands once in-process under the span tracer."""
    from polarlex import cli

    shutil.rmtree(run_dir, ignore_errors=True)
    tracer = spans.Tracer(run_id)
    undo = tracer.install(cli)
    manifests: dict[str, str] = {}
    errors: list[str] = []
    wall = 0.0
    try:
        for sub in wl.subcommands:
            if not wl.timed(sub):
                tracer.restore(undo)
                undo = []
            start = time.perf_counter()
            code = cli.main(command_args(wl, sub, inputs, run_dir))
            if wl.timed(sub):
                wall += time.perf_counter() - start
            if code != 0:
                errors.append(f"traced {sub}: exit code {code}")
                break
            manifests[f"manifest.json@{sub}"] = file_digest(run_dir / "manifest.json")
    finally:
        tracer.restore(undo)
    tracer.write(OUT / f"spans-{run_id}.jsonl")
    digests = artifact_digests(run_dir, manifests) if not errors else {}
    return tracer, wall, digests, errors


def process_start_s(env: dict[str, str], log: Path) -> float:
    """Median wall time of a CLI process that only starts and exits."""
    times = []
    for _ in range(PROCESS_START_REPEATS):
        code, wall, _ = run_child(["--version"], env, log)
        if code != 0:
            raise RuntimeError(f"polarlex --version exited with {code}")
        times.append(wall)
    return statistics.median(times)


def closed_loop(wl: Workload, inputs: Path, run_dir: Path, env: dict[str, str], log: Path,
                seconds: float) -> tuple[list[Iteration], dict[str, str], dict[str, int]]:
    """Run iterations back to back while the next one is expected to end within
    `seconds`; returns them with the first complete run's artifact digests and
    graph sizes (both empty if no run completed)."""
    iterations: list[Iteration] = []
    reference: dict[str, str] = {}
    sizes: dict[str, int] = {}
    loop_start = time.perf_counter()
    while True:
        start = time.perf_counter()
        it, digests = run_iteration(wl, inputs, run_dir, env, log)
        if digests:
            if not reference:
                reference = digests
                sizes = graph_sizes(run_dir)
            elif digests != reference:
                changed = sorted(k for k in reference.keys() | digests.keys()
                                 if reference.get(k) != digests.get(k))
                it.errors.append(f"artifact digests differ from the first run: {changed}")
        iterations.append(it)
        now = time.perf_counter()
        if (now - loop_start) + (now - start) > seconds:
            return iterations, reference, sizes


def per_layer_metrics(wl: Workload, inputs: Path, run_dir: Path, env: dict[str, str],
                      log: Path, run_id: str, reference: dict[str, str], wall: float,
                      cpu_s: float) -> tuple[dict[str, float], list[str]]:
    """The traced run's split, given the untraced median wall and CPU time."""
    tracer, traced_wall, traced_digests, errors = traced_run(wl, inputs, run_dir, run_id)
    if traced_digests != reference:
        errors.append("traced run artifacts differ from the untraced runs")
    n_processes = sum(1 for sub in wl.subcommands if wl.timed(sub))
    start_s = process_start_s(env, log) * n_processes
    metrics = tracer.metrics()
    metrics["cli.process_start.s"] = start_s
    metrics["cli.cpu_s"] = cpu_s
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.unstaged_s"] = traced_wall - tracer.stage_seconds()
    metrics["trace.overhead_s"] = traced_wall + start_s - wall
    return metrics, errors


def machine_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": NPROC,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "loadavg_start": list(os.getloadavg()),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Turn SIGTERM into SystemExit so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "polarlex" / "cli.py").is_file():
        print(f"polarbench: no polarlex sources at {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    facts = machine_facts()
    wl = WORKLOADS[args.workload]
    base = WORK / args.workload
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    OUT.mkdir(parents=True, exist_ok=True)
    log = base / "stderr.log"
    run_dir = base / "run"
    env = child_env()

    inputs, tweets, setup_times, errors = setup(wl, args.seed, base)
    iterations, reference, sizes = closed_loop(wl, inputs, run_dir, env, log, args.seconds)
    sizes["tweets"] = tweets
    attempted = len(iterations)
    failed = sum(1 for it in iterations if it.errors)
    for it in iterations:
        errors += it.errors
    completed = [it for it in iterations if it.completed]
    if not completed:
        for err in errors:
            print(f"polarbench: {err}", file=sys.stderr)
        print(f"polarbench: no iteration completed; see {log}", file=sys.stderr)
        return 1
    walls = [it.wall_s for it in completed]
    wall = statistics.median(walls)
    summary = {
        "wall_s": quartiles(walls),
        "cpu_s": quartiles([it.cpu_s for it in completed]),
        "peak_rss_mb": quartiles([it.peak_rss_mb for it in completed]),
        "setup_s": quartiles(setup_times),
    }

    if args.trace:
        metrics, trace_errors = per_layer_metrics(
            wl, inputs, run_dir, env, log, f"{args.workload}-seed{args.seed}", reference,
            wall, summary["cpu_s"]["median"])
        attempted += 1
        failed += bool(trace_errors)
        errors += trace_errors
        report = {name: {"value": metrics[name], "unit": unit}
                  for name, unit, _ in spans.per_layer_names()}
    else:
        report = {
            "wall_s": {"value": wall, "unit": "s"},
            "tweets_per_s": {"value": tweets / wall, "unit": "tweets/s"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"]["median"], "unit": "MB"},
            "user_accuracy": {"value": statistics.median(it.accuracy for it in completed),
                              "unit": "fraction"},
            "setup_s": {"value": summary["setup_s"]["median"], "unit": "s"},
        }

    facts["loadavg_end"] = list(os.getloadavg())
    facts["inputs"] = sizes
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": report}
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "facts": facts, "timings": summary,
               "error_rate": failed / attempted, "errors": errors,
               "digests": reference, "result": result}
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(details, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    for err in errors:
        print(f"error: {err}")
    for name, q in summary.items():
        print(f"{name}: median {q['median']:.4f} q1 {q['q1']:.4f} q3 {q['q3']:.4f} n {q['n']}")
    print(f"error_rate: {failed}/{attempted}")
    print("inputs: " + json.dumps(sizes, sort_keys=True))
    print("facts: " + json.dumps({k: v for k, v in facts.items() if k != "inputs"},
                                 sort_keys=True))
    for name, digest in sorted(reference.items()):
        print(f"sha256 {digest} {name}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
