"""Replay the recorded mutants and say which the tests kill.

    python tools/mutants.py

Each mutant in MUTANTS.json names a file, an exact old text that must occur
in it once, the new text that replaces it, and the tests to run (pytest
node ids or files).  The runner copies src/, tests/, tools/ and the files
that tests read (README.md, ROADMAP.md, MUTANTS.json) into WORKERS
temporary directories, runs every listed test once on the unmutated code,
and then has each copy take the next mutant in turn: it writes the mutated
file, runs the mutant's tests with pytest -x and puts the file back.

A mutant is killed when its tests fail (or error, or run past TIMEOUT
seconds), and survived when they pass; killed_by names the first failing
test.  A mutant whose old text no longer occurs exactly once is stale: the
code it guarded has changed, and it needs rewriting or removing, not
silent dropping.  Hypothesis runs with a fixed seed and no example
database, so a verdict does not depend on earlier runs.  Every mutant is
replayed, and each one's status and killed_by are written back into the
record.  The exit code is 1 when a mutant survived, 2 when the unmutated
tests fail, else 0.

Only the standard library and pytest are used.  The runner is not part of
the tier-1 suite: a full replay takes a few minutes.
"""

from __future__ import annotations

import json
import os
import queue
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "MUTANTS.json"
COPIED = ("src", "tests", "tools", "pyproject.toml", "README.md", "ROADMAP.md", "MUTANTS.json")
TIMEOUT = 600.0  # seconds per pytest run
WORKERS = 2  # tree copies, each running one pytest process at a time


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def _pytest(copy: Path, tests: list[str]) -> tuple[bool, str]:
    """Run the tests in the copy: (passed, first failing test or reason)."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *tests]
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    try:
        done = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False, f"timeout after {TIMEOUT:g} s"
    if done.returncode == 0:
        return True, ""
    found = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", done.stdout, re.MULTILINE)
    if found:
        return False, found.group(1)
    tail = (done.stdout + done.stderr).strip().splitlines()
    return False, f"pytest exit {done.returncode}: {tail[-1] if tail else ''}"


def _judge(copy: Path, m: dict) -> dict:
    """Status and killed_by of one mutant, replayed in the tree copy."""
    path = copy / m["file"]
    original = path.read_text()
    count = original.count(m["old"])
    if count != 1:
        result = {"status": "stale", "killed_by": f"old text found {count} times"}
    else:
        path.write_text(original.replace(m["old"], m["new"]))
        try:
            passed, why = _pytest(copy, m["tests"])
        finally:
            path.write_text(original)
        result = {"status": "survived" if passed else "killed", "killed_by": why or None}
    print(f"{result['status']:8} {m['id']}: {result['killed_by'] or ''}", flush=True)
    return result


def replay(mutants: list[dict]) -> list[dict]:
    """Status and killed_by for each mutant, in order."""
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copies = queue.Queue()
        for i in range(WORKERS):
            copy = Path(tmp) / str(i)
            copy.mkdir()
            _copy_tree(copy)
            copies.put(copy)
        baseline = sorted({t for m in mutants for t in m["tests"]})
        passed, why = _pytest(Path(tmp) / "0", baseline)
        if not passed:
            raise RuntimeError(f"the unmutated tests fail ({why}); no mutant can be judged")

        def judge(m: dict) -> dict:
            copy = copies.get()
            try:
                return _judge(copy, m)
            finally:
                copies.put(copy)

        with ThreadPoolExecutor(WORKERS) as pool:
            return list(pool.map(judge, mutants))


def main() -> int:
    record = json.loads(RECORD.read_text())
    start = time.monotonic()
    try:
        results = replay(record["mutants"])
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2
    for m, result in zip(record["mutants"], results):
        m.update(result)
    counts = {s: sum(r["status"] == s for r in results) for s in ("killed", "survived", "stale")}
    print(f"{len(results)} mutants in {time.monotonic() - start:.0f} s: "
          + ", ".join(f"{n} {s}" for s, n in counts.items()))
    RECORD.write_text(json.dumps(record, indent=2, ensure_ascii=False) + "\n")
    return 1 if counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
