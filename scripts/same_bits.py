#!/usr/bin/env python3
"""Check that the working tree computes the same bits as another revision.

    python scripts/same_bits.py --against REV [--kernels default,Prescott]

REV is checked out into a git worktree under ``.bench_work/`` (local git
only) and removed afterwards.  Every scenario of ``SCENARIOS`` then runs
through ``apsabench.cli.main`` in a fresh interpreter for each tree, under
each OpenBLAS kernel given (``default`` leaves ``OPENBLAS_CORETYPE`` unset,
any other name sets it), with BLAS on one thread.  Each interpreter runs
with ``-W error::RuntimeWarning -W error::DeprecationWarning``, the filters
of CI's smoke runs, so a scenario that warns fails, and CI's run of this
script checks every scenario under both kernels for warnings.  Both trees
read the same config and WAV files.  A scenario is the same when the
sha256 of the totals and of the final weights that ``harness._run_batch``
returned are equal, and so are the three files the CLI wrote; in the
manifest, the run's output directory is read as one placeholder.

One line per scenario says "same", or "differs" with the largest absolute
and relative difference of the totals and weights and the CLI files that
differ.  The exit code is 0 when every scenario is the same, 1 when one
differs, and 2 when a run or the checkout fails.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import time
import wave
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS, write_wav  # noqa: E402

CLI_FILES = ("trace.csv", "trace.dat", "manifest.txt")
WARNINGS_AS_ERRORS = ("-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning")
BLAS_THREADS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
}


@dataclass(frozen=True)
class Scenario:
    """A config, from a perfbench workload or a file under ``configs/``,
    with some values replaced.  Its input may be a WAV file with 1000
    samples of silence, and its input and desired records may be scaled."""

    name: str
    base: str  # "workload:NAME" or "config:NAME"
    values: dict[str, str] = field(default_factory=dict)
    silence: bool = False
    scale: float = 1.0


# One APSA filter over one trial at projection order 2 runs the single-filter
# loop; any other shape the batched loop.
_SINGLE = {"algorithms": "apsa", "trials": "1"}
# CI's WAV run: 8000 samples, the path layout of configs/quick_check.cfg.
_WAV = {"input": "wav", "iterations": "8000", "switch_iteration": "4000", "trials": "1"}

SCENARIOS = (
    Scenario("echo512", "workload:echo512"),
    Scenario("ensemble128", "workload:ensemble128"),
    Scenario("single_wav", "workload:single_wav"),
    Scenario("quick_check", "config:quick_check"),
    Scenario(
        "block_balanced_tracking, 4k",
        "config:block_balanced_tracking",
        {"iterations": "4000", "switch_iteration": "2000"},
    ),
    Scenario(
        "colored_input_tracking, 3k x 4",
        "config:colored_input_tracking",
        {"iterations": "3000", "switch_iteration": "1500", "trials": "4"},
    ),
    Scenario("apsa M=1", "config:quick_check", {**_SINGLE, "projection_order": "1"}),
    Scenario("apsa M=3", "config:quick_check", {**_SINGLE, "projection_order": "3"}),
    Scenario("three M=1", "config:quick_check", {"projection_order": "1"}),
    Scenario("three M=3", "config:quick_check", {"projection_order": "3"}),
    *(
        Scenario(f"{loop} {key}={value}", "config:quick_check", {**values, key: value})
        for loop, values in (("apsa", _SINGLE), ("three", {}))
        for key, value in (("delta", "0"), ("delta", "1e-310"), ("delta", "1e300"), ("mu", "1e6"))
    ),
    *(
        Scenario(f"{loop} x{scale:g}", "config:quick_check", values, scale=scale)
        for loop, values in (("apsa", _SINGLE), ("three", {}))
        for scale in (1e-162, 1e160)
    ),
    *(
        Scenario(f"{loop} silence delta={delta}", "config:quick_check",
                 {**_WAV, **values, "delta": delta}, silence=True)
        for loop, values in (("apsa", {"algorithms": "apsa"}), ("three", {}))
        for delta in ("0", "0.01")
    ),
)


def _read_config(path: Path) -> dict[str, str]:
    values = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def _write_silence_wav(path: Path, count: int) -> None:
    """Speech-like noise with samples 3000 to 3999 exact zeros, as in CI's
    silence runs: longer than any scenario's filter."""
    write_wav(path, count, seed=1)
    with wave.open(str(path), "rb") as fh:
        params, frames = fh.getparams(), bytearray(fh.readframes(fh.getnframes()))
    frames[2 * 3000 : 2 * 4000] = bytes(2000)
    with wave.open(str(path), "wb") as fh:
        fh.setparams(params)
        fh.writeframes(bytes(frames))


def write_config(scenario: Scenario, directory: Path) -> Path:
    """Write the scenario's config (and WAV input) into ``directory``."""
    kind, name = scenario.base.split(":")
    directory.mkdir(parents=True)
    if kind == "workload":
        workload = WORKLOADS[name]
        path = workload.write_inputs(directory, workload.default_seed)
        values = _read_config(path)
    else:
        values = _read_config(ROOT / "configs" / f"{name}.cfg")
    values.update(scenario.values)
    if scenario.silence:
        wav_path = directory / "silence.wav"
        _write_silence_wav(wav_path, int(values["iterations"]))
        values["wav_path"] = str(wav_path)
    path = directory / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    return path


def worker(tree_src: str, config: str, scale: str, out: str) -> None:
    """Run one scenario in this interpreter (started by ``run_side``): save
    what ``_run_batch`` returned and let the CLI write its files."""
    import apsabench
    from apsabench import cli, harness

    if not Path(apsabench.__file__).resolve().is_relative_to(Path(tree_src).resolve()):
        raise SystemExit(f"imported {apsabench.__file__}, not the tree under {tree_src}")
    results = []
    run_batch, realization = harness._run_batch, harness._realization

    def recording_run_batch(*args):
        results.append(run_batch(*args))
        return results[-1]

    harness._run_batch = recording_run_batch
    factor = float(scale)
    if factor != 1.0:
        harness._realization = lambda *args: tuple(factor * r for r in realization(*args))
    code = cli.main(["--config", config, "--out", str(Path(out) / "cli"), "--quiet"])
    if code != 0 or len(results) != 1:
        raise SystemExit(f"the CLI exited with {code} after {len(results)} engine runs")
    totals, weights = results[0]
    np.save(Path(out) / "totals.npy", totals)
    np.save(Path(out) / "weights.npy", weights)


def run_side(tree: Path, config: Path, scenario: Scenario, kernel: str, out: Path) -> None:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "OPENBLAS_CORETYPE")}
    env.update(BLAS_THREADS, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(ROOT / "scripts")]))
    if kernel != "default":
        env["OPENBLAS_CORETYPE"] = kernel
    out.mkdir(parents=True)
    code = "import sys, same_bits; same_bits.worker(*sys.argv[1:])"
    args = [str(tree / "src"), str(config), repr(scenario.scale), str(out)]
    done = subprocess.run(
        [sys.executable, *WARNINGS_AS_ERRORS, "-c", code, *args],
        cwd=out, env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        last = (done.stderr.strip().splitlines() or ["no output"])[-1]
        raise RuntimeError(f"{tree}: exit {done.returncode}: {last}")


def _gaps(a, b) -> tuple[float, float]:
    """The largest absolute and relative difference of two equal-shape
    arrays; NaN against a number, or inf against another value, is inf."""
    with np.errstate(invalid="ignore", over="ignore"):
        same = (a == b) | (np.isnan(a) & np.isnan(b))
        gap = np.where(same, 0.0, np.abs(a - b))
        scale = np.maximum(np.abs(a), np.abs(b))
        relative = np.where(same, 0.0, gap / np.where(scale == 0.0, 1.0, scale))
    gap[np.isnan(gap)] = np.inf
    relative[np.isnan(relative)] = np.inf
    return float(np.max(gap, initial=0.0)), float(np.max(relative, initial=0.0))


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def compare(before: Path, after: Path) -> str:
    """'same', or 'differs' with what differs between two sides' outputs."""
    notes = []
    for name in ("totals", "weights"):
        a, b = (np.load(side / f"{name}.npy") for side in (before, after))
        if _digest(a.tobytes()) == _digest(b.tobytes()) and a.shape == b.shape:
            continue
        if a.shape != b.shape:
            notes.append(f"{name} shapes {a.shape} and {b.shape}")
        else:
            notes.append("%s max abs %.3g, max rel %.3g" % (name, *_gaps(a, b)))
    for name in CLI_FILES:
        a, b = (
            (side / "cli" / name).read_bytes().replace(str(side / "cli").encode(), b"<out>")
            for side in (before, after)
        )
        if _digest(a) != _digest(b):
            notes.append(name)
    return "differs: " + "; ".join(notes) if notes else "same"


def _git(root: Path, *args: str) -> str:
    done = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout.strip()


def check(root: Path, against: str, kernels: list[str], scenarios, work: Path) -> int:
    """Run every scenario for REV's worktree and ``root``; the exit code."""
    tree = work / "tree"
    try:
        rev = _git(root, "rev-parse", "--verify", f"{against}^{{commit}}")
        _git(root, "worktree", "add", "--detach", "--quiet", str(tree), rev)
    except RuntimeError as exc:
        print(f"same_bits: cannot check out {against}: {exc}", file=sys.stderr)
        return 2
    print(f"{root} against {against} ({rev[:12]})")
    differ = failed = 0
    started = time.monotonic()
    try:
        configs = [write_config(s, work / "inputs" / f"{i:02d}") for i, s in enumerate(scenarios)]
        for kernel in kernels:
            for i, scenario in enumerate(scenarios):
                sides = [work / kernel / f"{i:02d}" / side for side in ("before", "after")]
                try:
                    for side_tree, out in zip((tree, root), sides):
                        run_side(side_tree, configs[i], scenario, kernel, out)
                    verdict = compare(*sides)
                except RuntimeError as exc:
                    verdict = f"failed: {exc}"
                    failed += 1
                else:
                    differ += verdict != "same"
                print(f"{kernel:<9} {scenario.name:<32} {verdict}", flush=True)
    finally:
        subprocess.run(["git", "-C", str(root), "worktree", "remove", "--force", str(tree)],
                       capture_output=True)
    runs = len(scenarios) * len(kernels)
    print(
        f"{runs - differ - failed} of {runs} runs same ({len(scenarios)} scenarios x "
        f"{len(kernels)} kernels: {', '.join(kernels)}), {differ} differ, {failed} failed, "
        f"{time.monotonic() - started:.0f} s"
    )
    return 2 if failed else 1 if differ else 0


def main(argv: list[str] | None = None, root: Path = ROOT, scenarios=SCENARIOS) -> int:
    """Compare the working tree at ``root`` against ``--against``."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="the revision to compare against")
    parser.add_argument(
        "--kernels", default="default",
        help="comma-separated OPENBLAS_CORETYPE values; 'default' leaves it unset",
    )
    args = parser.parse_args(argv)

    work_dir = root / ".bench_work"
    work_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_dir, prefix="same_bits-"))
    try:
        return check(root, args.against, args.kernels.split(","), scenarios, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        subprocess.run(["git", "-C", str(root), "worktree", "prune"], capture_output=True)
        try:
            work_dir.rmdir()
        except OSError:  # not empty: perfbench works there too
            pass


if __name__ == "__main__":
    raise SystemExit(main())
