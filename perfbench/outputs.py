"""The output check that decides whether a repetition failed.

At a workload's default seed, ``trace.csv`` and ``trace.dat`` must match the
digests recorded for it byte for byte: byte-identical is the same as
identical at the printed 6 decimals.  At any seed the traces must have one
row per iteration, the algorithms in config order in the header, finite
values and a first row of ``0.000000``, and ``manifest.txt`` must re-parse
through ``parse_config`` to the same config.
"""

from __future__ import annotations

import dataclasses
import hashlib
import re
from pathlib import Path

import numpy as np

from workloads import Workload

# file -> (header prefix, column separator)
TRACE_FILES = {"trace.csv": ("iteration", ","), "trace.dat": ("# iteration", " ")}
OUTPUT_FILES = (*TRACE_FILES, "manifest.txt")


def _check_trace(path: Path, workload: Workload, prefix: str, sep: str) -> str | None:
    lines = path.read_text(encoding="ascii").splitlines()
    header = sep.join([prefix, *(f"{a}_misalign_db" for a in workload.algorithms)])
    if not lines or lines[0] != header:
        return f"{path.name}: header is not '{header}'"
    rows = lines[1:]
    if len(rows) != workload.iterations:
        return f"{path.name}: {len(rows)} rows, expected {workload.iterations}"
    if rows[0] != sep.join(["0", *["0.000000"] * len(workload.algorithms)]):
        return f"{path.name}: row 0 does not read 0.000000: '{rows[0]}'"
    # An index, then one finite value per algorithm as written with 6 decimals
    # ('nan' and 'inf' do not match).
    row = re.compile(rf"(\d+)(?:{re.escape(sep)}-?\d+\.\d{{6}}){{{len(workload.algorithms)}}}")
    for i, line in enumerate(rows):
        match = row.fullmatch(line)
        if match is None or match.group(1) != str(i):
            return f"{path.name}: row {i} is malformed or not finite: '{line}'"
    return None


def same(a, b) -> bool:
    """Field-by-field equality that also compares numpy arrays and nested dataclasses."""
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return all(same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


def check_outputs(
    out_dir: Path, workload: Workload, seed: int, config_path: Path, parse_config
) -> str | None:
    """Return ``None`` when the outputs are correct, else the first problem found."""
    for name in OUTPUT_FILES:
        if not (out_dir / name).is_file():
            return f"{name} was not written"
    for name, (prefix, sep) in TRACE_FILES.items():
        problem = _check_trace(out_dir / name, workload, prefix, sep)
        if problem:
            return problem
        if seed == workload.default_seed:
            digest = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            if digest != workload.digests[name]:
                return f"{name}: sha256 {digest} differs from the recorded digest"
    if not same(parse_config(out_dir / "manifest.txt"), parse_config(config_path)):
        return "manifest.txt does not re-parse to the run's config"
    return None
