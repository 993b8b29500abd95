"""``scripts/same_bits.py`` on a clone of this checkout: the clone's HEAD
against itself is the same, and one constant moved by one ulp differs."""

import importlib.util
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

spec = importlib.util.spec_from_file_location("same_bits", ROOT / "scripts" / "same_bits.py")
same_bits = sys.modules["same_bits"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_bits)

# Two short runs of configs/quick_check.cfg: the single-filter loop and the
# batched loop.
TABLE = (
    same_bits.Scenario(
        "apsa", "config:quick_check",
        {"algorithms": "apsa", "trials": "1", "iterations": "2000", "switch_iteration": "1000"},
    ),
    same_bits.Scenario(
        "three", "config:quick_check",
        {"trials": "1", "iterations": "2000", "switch_iteration": "1000"},
    ),
)


def _toplevel():
    if shutil.which("git") is None:
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"], capture_output=True, text=True
    )
    return Path(done.stdout.strip()).resolve() if done.returncode == 0 else None


@pytest.fixture
def clone(tmp_path):
    if _toplevel() != ROOT:
        pytest.skip(f"{ROOT} is not a git checkout, and same_bits.py checks revisions out with git")
    tree = tmp_path / "tree"
    subprocess.run(["git", "clone", "--quiet", str(ROOT), str(tree)], check=True,
                   capture_output=True)
    return tree


def _run(tree, capsys):
    code = same_bits.main(["--against", "HEAD"], root=tree, scenarios=TABLE)
    lines = capsys.readouterr().out.splitlines()
    # The worktree and its directory are gone afterwards.
    worktrees = subprocess.run(["git", "-C", str(tree), "worktree", "list"],
                               capture_output=True, text=True, check=True).stdout
    assert len(worktrees.splitlines()) == 1
    assert not (tree / ".bench_work").exists()
    return code, {line.split()[1]: line.split(None, 2)[2] for line in lines[1:-1]}


def test_head_against_itself_is_the_same(clone, capsys):
    code, verdicts = _run(clone, capsys)
    assert verdicts == {"apsa": "same", "three": "same"}
    assert code == 0


def test_a_constant_moved_by_one_ulp_differs(clone, capsys):
    harness = clone / "src" / "apsabench" / "harness.py"
    text = harness.read_text(encoding="utf-8")
    moved = f"squared_errors *= {math.nextafter(10.0, 11.0)!r}"
    assert text.count("squared_errors *= 10.0") == 1
    harness.write_text(text.replace("squared_errors *= 10.0", moved), encoding="utf-8")
    code, verdicts = _run(clone, capsys)
    assert code == 1
    for name in ("apsa", "three"):
        assert verdicts[name].startswith("differs: totals max abs "), verdicts[name]
