"""Time one noether command on two source trees in one process.

    python tools/ab.py [--fixed-heap] TREE_A TREE_B NOETHER_ARGV...

for example

    python tools/ab.py ../parent . el --scale h:1:0:9999 --lagrangian quad:1:1:0:0

Each tree's src/tsnoether is imported under its own package name
(tsnoether_a, tsnoether_b), and the command runs through each one's
cli.main, PAIRS times per side after one untimed warm-up call each.  The
calls alternate in order, A then B, then B then A, so that neither side
always runs on the heap the other just left.  Each pair gives the ratio of
B's wall time to A's; the tool prints the median ratio, its quartiles,
each side's median minor page faults per call (getrusage's ru_minflt read
around each timed call), each side's traced peak (tracemalloc's peak over
one untimed call per side after the pairs) and whether every call wrote
the same stdout bytes and exit code.  A gain that comes with fewer faults
may be the heap's, not the code's; the fault counts show which without a
second tool, and the traced peaks show a memory change of both trees from
one process.  Separate processes per run cannot tell a code effect of a
few percent on a millisecond command from the heap layout each process
happens to get; one process shares one history between both sides.

One history still leaves one heap layout, and a layout can move a short
command by 10-40%.  With --fixed-heap the tool also takes the reading with
glibc's mmap threshold set to 4 MB and its trim threshold to 64 MB, through
mallopt, before either tree (or numpy) is imported; then most of the page
faults that the layout decides are gone.  The default reading runs in a
child process, and the tool prints both, default first.  A gain seen only
in the default reading is a layout effect, not the code's.  The mode exits
2 where mallopt is missing or refuses the values.

Only the standard library and numpy (through the trees) are used.  The
exit code is 1 when the outputs differ, 2 on a usage error, else 0.
"""

from __future__ import annotations

import ctypes
import importlib
import importlib.util
import io
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

PAIRS = 30
# mallopt parameters from glibc's malloc.h, and the values --fixed-heap sets.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
FIXED_HEAP = ((M_MMAP_THRESHOLD, 4 << 20), (M_TRIM_THRESHOLD, 64 << 20))


def fix_heap() -> bool:
    """Set FIXED_HEAP in this process; False where mallopt is missing or
    refuses a value."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return all(mallopt(param, value) == 1 for param, value in FIXED_HEAP)


def load_package(tree: str, name: str):
    """tree/src/tsnoether, imported as the package name."""
    pkg = Path(tree) / "src" / "tsnoether"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_cli(tree: str, name: str):
    """The cli module of tree/src/tsnoether, imported as the package name."""
    load_package(tree, name)
    return importlib.import_module(f"{name}.cli")


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def timed_call(cli, argv: list[str]) -> tuple[float, int, tuple[int, bytes]]:
    """Wall time and minor page faults of cli.main(argv), and its exit code
    and stdout bytes."""
    out = io.StringIO()
    with redirect_stdout(out):
        faults = minor_faults()
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
        faults = minor_faults() - faults
    return elapsed, faults, (code, out.getvalue().encode())


def traced_peak(cli, argv: list[str]) -> tuple[int, tuple[int, bytes]]:
    """tracemalloc's peak bytes over one cli.main(argv) call, and its exit
    code and stdout bytes."""
    out = io.StringIO()
    with redirect_stdout(out):
        tracemalloc.start()
        try:
            code = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak, (code, out.getvalue().encode())


def reading(trees: list[str], command: list[str]) -> tuple[str, bool]:
    """The timing line of PAIRS alternating pairs, and whether every call
    wrote the same stdout bytes and exit code."""
    clis = (load_cli(trees[0], "tsnoether_a"), load_cli(trees[1], "tsnoether_b"))
    times: tuple[list, list] = ([], [])
    faults: tuple[list, list] = ([], [])
    outputs = set()
    for i in range(PAIRS + 1):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            elapsed, minflt, output = timed_call(clis[side], command)
            outputs.add(output)
            if i:
                times[side].append(elapsed)
                faults[side].append(minflt)
    peaks = []
    for cli in clis:
        peak, output = traced_peak(cli, command)
        peaks.append(peak)
        outputs.add(output)
    ratios = [b / a for a, b in zip(*times)]
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    identical = len(outputs) == 1
    line = (
        f"A {statistics.median(times[0]) * 1e3:.3f} ms, B {statistics.median(times[1]) * 1e3:.3f} ms; "
        f"B/A median {statistics.median(ratios):.3f} (IQR {q1:.3f}-{q3:.3f}) over {PAIRS} pairs; "
        f"minor faults per call A {statistics.median(faults[0]):g}, B {statistics.median(faults[1]):g}; "
        f"traced peak A {peaks[0] / 2**20:.2f} MiB, B {peaks[1] / 2**20:.2f} MiB; "
        f"stdout identical: {'yes' if identical else 'no'}"
    )
    return line, identical


def main(argv: list[str]) -> int:
    fixed = argv[:1] == ["--fixed-heap"]
    argv = argv[1:] if fixed else argv
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    if not fixed:
        line, identical = reading(argv[:2], argv[2:])
        print(line)
        return 0 if identical else 1
    if not fix_heap():
        print("error: --fixed-heap needs glibc's mallopt, which is missing here or refused the values", file=sys.stderr)
        return 2
    default = subprocess.run([sys.executable, __file__, *argv], capture_output=True, text=True)
    if default.returncode not in (0, 1):
        print(default.stderr, end="", file=sys.stderr)
        return default.returncode
    line, identical = reading(argv[:2], argv[2:])
    print(f"default heap: {default.stdout.strip()}")
    print(f"fixed heap:   {line}")
    return 0 if identical and default.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
