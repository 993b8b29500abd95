"""Seeded end-to-end and per-layer benchmark of the apsabench CLI.

    python3 perfbench/run.py --workload echo512 --seed 1 --seconds 36 --trace 0

Each process is a fresh single-threaded interpreter (BLAS pinned to one
thread) that sets up once and then calls ``apsabench.cli.main`` while another
call fits in ``PROCESS_BUDGET_S``; one process runs at a time, on inputs this
benchmark writes from ``--seed``.  Processes are started while another one fits
in ``--seconds`` (at least ``MIN_PROCESSES``), and the outputs of every call
are checked.  With ``--trace 0`` the end-to-end metrics are medians over the
calls (``setup_s`` over the processes).  With ``--trace 1`` untraced and
traced processes of one call each alternate, and the per-layer metrics are
medians over the traced ones.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
per-layer metric whose function the program no longer has is printed as
``absent`` and has the JSON value ``null``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
from outputs import check_outputs
from workloads import WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"

MIN_PROCESSES = 3
PROCESS_BUDGET_S = 10.0  # a process calls the CLI again while another call fits in this
HARD_LIMIT_S = 150.0  # no child is allowed to run past this point of a run
BLAS_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

# metric -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "steps_per_s": ("1/s", "higher"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "setup_s": ("s", "lower"),
}


class ChildFailed(RuntimeError):
    pass


@dataclass
class Run:
    workload: Workload
    seed: int
    config: Path
    work: Path
    started: float = field(default_factory=time.monotonic)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def spawn_child(mode: str, config: Path, out: Path, budget: float, timeout: float) -> dict:
    """Run child.py once and return its JSON result."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(BLAS_THREADS, PYTHONPATH=str(SRC))
    argv = [sys.executable, str(BENCH_DIR / "child.py"), mode, str(config), str(out)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [*argv, repr(t0), str(SRC), repr(budget)],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child ran past {timeout:.0f} s") from exc
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise ChildFailed(f"{mode} child exited {proc.returncode}: {' | '.join(tail)}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise ChildFailed(f"{mode} child printed no result") from exc


def parse_config(path):
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from apsabench.cli import parse_config as parse

    return parse(path)


def _problem(run: Run, call: dict, out: Path) -> str | None:
    if call["exit_code"] != 0:
        return f"apsabench exited {call['exit_code']}"
    try:
        return check_outputs(out, run.workload, run.seed, run.config, parse_config)
    except (OSError, ValueError) as exc:
        return f"output check: {exc}"


def process(run: Run, mode: str, budget: float) -> dict | None:
    """One child process with every call's outputs checked; ``None`` if it failed.

    A call whose outputs are wrong counts as failed but keeps its timings.
    """
    out = Path(tempfile.mkdtemp(dir=run.work, prefix="out-"))
    try:
        try:
            result = spawn_child(mode, run.config, out, budget, max(1.0, HARD_LIMIT_S - run.elapsed()))
        except ChildFailed as exc:
            run.attempted += 1
            run.failed += 1
            run.problems.append(str(exc))
            return None
        for k, call in enumerate(result["calls"]):
            run.attempted += 1
            problem = _problem(run, call, out / str(k))
            if problem:
                run.failed += 1
                run.problems.append(problem)
            call["bytes_written"] = sum(p.stat().st_size for p in (out / str(k)).glob("*"))
        return result
    finally:
        shutil.rmtree(out, ignore_errors=True)


def keep_going(run: Run, durations: list[float], minimum: int, seconds: float) -> bool:
    """Start another process if the minimum is not met or one more fits in time."""
    if run.elapsed() >= HARD_LIMIT_S:
        return False
    return len(durations) < minimum or run.elapsed() + statistics.median(durations) <= seconds


def end_to_end(run: Run, seconds: float) -> dict[str, float]:
    setups, calls, durations = [], [], []
    while keep_going(run, durations, MIN_PROCESSES, seconds):
        started = run.elapsed()
        result = process(run, "run", PROCESS_BUDGET_S)
        if result is None:
            break
        setups.append(result["setup_s"])
        calls += result["calls"]
        durations.append(run.elapsed() - started)
    if not calls:
        raise ChildFailed("no process completed")
    steps = run.workload.steps
    return {
        "wall_s": statistics.median(c["wall_s"] for c in calls),
        "steps_per_s": statistics.median(steps / c["wall_s"] for c in calls),
        "cpu_s": statistics.median(c["cpu_s"] for c in calls),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in calls),
        "setup_s": statistics.median(setups),
    }


def per_layer(run: Run, seconds: float) -> dict[str, float | None]:
    walls, layers, durations = [], [], []
    while keep_going(run, durations, 1, seconds):
        started = run.elapsed()
        plain = process(run, "run", 0.0)
        traced = process(run, "trace", 0.0) if plain else None
        if traced is None:
            break
        call = traced["calls"][0]
        walls.append((plain["calls"][0]["wall_s"], call["wall_s"]))
        layers.append(
            spans.layer_metrics(
                traced["spans"],
                traced["installed"],
                wall_s=call["wall_s"],
                import_s=traced["import_s"],
                trials=run.workload.trials,
                iterations=run.workload.iterations,
                bytes_written=call["bytes_written"],
            )
        )
        durations.append(run.elapsed() - started)
    if not layers:
        raise ChildFailed("no traced process completed")
    metrics = {
        name: None if any(m[name] is None for m in layers) else statistics.median(m[name] for m in layers)
        for name in spans.PER_LAYER
    }
    untraced = statistics.median(w for w, _ in walls)
    metrics["trace.overhead_frac"] = statistics.median(t for _, t in walls) / untraced - 1.0
    return metrics


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict[str, object]:
    def version(package: str) -> str:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return "not installed"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "child_blas_threads": BLAS_THREADS,
        "commit": git_commit(),
    }


def _show(name: str, value: float | None, unit: str, note: str = "") -> str:
    shown = "absent" if value is None else f"{value:.6g}"
    return f"  {name:34s} {shown:>14s} {unit:6s} {note}".rstrip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=36.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "apsabench" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'apsabench'} is missing", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    if seed < 0:
        parser.error("--seed must be >= 0")

    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_DIR, prefix=f"{workload.name}-"))
    try:
        run = Run(workload, seed, workload.write_inputs(work, seed), work)
        try:
            if args.trace:
                metrics = per_layer(run, args.seconds)
                table = {k: (unit, better) for k, (unit, better, *_) in spans.PER_LAYER.items()}
            else:
                metrics = end_to_end(run, args.seconds)
                table = END_TO_END
        except ChildFailed as exc:
            for problem in [*run.problems, str(exc)]:
                print(f"perfbench: {problem}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run is still using it

    print(f"perfbench {workload.name} seed={seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"  env {json.dumps(environment())}")
    print(
        f"  steps {workload.steps} = {workload.iterations} iterations x "
        f"{workload.trials} trials x {len(workload.algorithms)} algorithms"
    )
    for problem in run.problems:
        print(f"  failure: {problem}")
    print(_show("failed_frac", run.failed / run.attempted, "ratio", f"({run.failed}/{run.attempted})"))
    for name, (unit, _) in table.items():
        note = ""
        if args.trace:
            moves, where = spans.PER_LAYER[name][2:]
            note = f"moves {moves}; {where}"
        print(_show(name, metrics[name], unit, note))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, (unit, _) in table.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
