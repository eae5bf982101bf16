"""Time one noether command on two source trees in one process.

    python tools/ab.py TREE_A TREE_B NOETHER_ARGV...

for example

    python tools/ab.py ../parent . el --scale h:1:0:9999 --lagrangian quad:1:1:0:0

Each tree's src/tsnoether is imported under its own package name
(tsnoether_a, tsnoether_b), and the command runs through each one's
cli.main, PAIRS times per side after one untimed warm-up call each.  The
calls alternate in order, A then B, then B then A, so that neither side
always runs on the heap the other just left.  Each pair gives the ratio of
B's wall time to A's; the tool prints the median ratio, its quartiles and
whether every call wrote the same stdout bytes and exit code.  Separate
processes per run cannot tell a code effect of a few percent on a
millisecond command from the heap layout each process happens to get; one
process shares one history between both sides.

Only the standard library and numpy (through the trees) are used.  The
exit code is 1 when the outputs differ, 2 on a usage error, else 0.
"""

from __future__ import annotations

import importlib
import importlib.util
import io
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

PAIRS = 30


def load_cli(tree: str, name: str):
    """The cli module of tree/src/tsnoether, imported as the package name."""
    pkg = Path(tree) / "src" / "tsnoether"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def timed_call(cli, argv: list[str]) -> tuple[float, tuple[int, bytes]]:
    """Wall time of cli.main(argv), and its exit code and stdout bytes."""
    out = io.StringIO()
    with redirect_stdout(out):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return elapsed, (code, out.getvalue().encode())


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    clis = (load_cli(argv[0], "tsnoether_a"), load_cli(argv[1], "tsnoether_b"))
    command = argv[2:]
    times: tuple[list, list] = ([], [])
    outputs = set()
    for i in range(PAIRS + 1):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            elapsed, output = timed_call(clis[side], command)
            outputs.add(output)
            if i:
                times[side].append(elapsed)
    ratios = [b / a for a, b in zip(*times)]
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    print(
        f"A {statistics.median(times[0]) * 1e3:.3f} ms, B {statistics.median(times[1]) * 1e3:.3f} ms; "
        f"B/A median {statistics.median(ratios):.3f} (IQR {q1:.3f}-{q3:.3f}) over {PAIRS} pairs; "
        f"stdout identical: {'yes' if len(outputs) == 1 else 'no'}"
    )
    return 0 if len(outputs) == 1 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
