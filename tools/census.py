"""Reachability census: which ``src/repro`` functions does anything call?

Runs the non-test entry points (``examples/*.py``, ``pytest benchmarks``, each
``bench/run.py`` workload at ``--scale tiny``, untraced and traced), then
tier-1.  A ``sitecustomize`` first on ``PYTHONPATH`` installs a profile hook
that appends the first call of each ``src/repro`` code object to one file per
pid, so forked pool workers and SIGKILLed children report too.  Prints each
function no entry point reaches as tests-only or nothing, and line counts per
module (a nested function's lines are its own).  Needs pytest and
pytest-benchmark::

    python tools/census.py
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Seen code objects are keyed by id, not by value: two functions with the same
# body on the same line of different files compare equal.  The dict keeps each
# code object alive, so no id is ever reused.
SITECUSTOMIZE = '''\
import os, sys, threading
_SRC, _OUT, _seen, _file = {src!r}, {out!r}, {{}}, [None, None]
def _profile(frame, event, arg):
    if event == "call" and id(frame.f_code) not in _seen:
        code = _seen[id(frame.f_code)] = frame.f_code
        if code.co_filename.startswith(_SRC):
            if _file[0] != os.getpid():
                _file[:] = [os.getpid(), os.open(os.path.join(_OUT, str(os.getpid())),
                                                 os.O_WRONLY | os.O_CREAT | os.O_APPEND)]
            os.write(_file[1], f"{{code.co_filename}}\\t{{code.co_firstlineno}}\\n".encode())
sys.setprofile(_profile)
threading.setprofile(_profile)
'''


def run_recorded(work: Path, phase: str, commands: list[list[str]]) -> set[tuple[str, int]]:
    """Run ``commands`` from the repo root and return every (file, first line) called."""
    hook, out = work / phase / "site", work / phase / "calls"
    hook.mkdir(parents=True)
    out.mkdir()
    (hook / "sitecustomize.py").write_text(SITECUSTOMIZE.format(src=str(SRC / "repro"), out=str(out)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(hook), str(SRC)])}
    for command in commands:
        code = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL).returncode
        print(f"[{phase}] exit {code}: {' '.join(command[1:])}", file=sys.stderr)
    calls = set()
    for path in out.iterdir():
        for line in path.read_text().splitlines():
            filename, first = line.split("\t")
            calls.add((str(Path(filename).resolve()), int(first)))
    return calls


def defined_functions() -> list[tuple[str, int, str, int]]:
    """(file, first line, qualified name, own lines) for every def under ``src/repro``."""
    found = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        spans = []

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                name = getattr(child, "name", None)
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    spans.append((first, child.end_lineno, prefix + name))
                visit(child, prefix + name + "." if name else prefix)

        visit(ast.parse(path.read_text()), "")
        owner = {}
        for first, last, name in sorted(spans, key=lambda span: span[0] - span[1]):
            owner.update(dict.fromkeys(range(first, last + 1), (first, name)))
        lines = Counter(owner.values())
        found += [(str(path), first, name, lines[first, name]) for first, _, name in spans]
    return found


def main() -> int:
    python = sys.executable
    workloads = [entry["name"] for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    with tempfile.TemporaryDirectory(prefix="census-") as scratch:
        work = Path(scratch)
        entry = run_recorded(work, "entry", [
            *([python, str(path)] for path in sorted((ROOT / "examples").glob("*.py"))),
            [python, "-m", "pytest", "benchmarks", "-q", "-p", "no:cacheprovider", "--benchmark-disable"],
            *([python, "bench/run.py", "--workload", name, "--scale", "tiny", "--trace", str(trace),
               "--out", str(work / "bench")] for name in workloads for trace in (0, 1)),
        ])
        tests = run_recorded(work, "tests", [[python, "-m", "pytest", "-q", "-p", "no:cacheprovider"]])

    per_module = defaultdict(lambda: [0, 0, 0])
    listed = {"tests-only": [], "nothing": []}
    totals = {"entry-point": [0, 0], "tests-only": [0, 0], "nothing": [0, 0]}
    for filename, first, name, lines in defined_functions():
        status = ("entry-point" if (filename, first) in entry
                  else "tests-only" if (filename, first) in tests else "nothing")
        module = str(Path(filename).relative_to(SRC))
        per_module[module][list(totals).index(status)] += lines
        totals[status][0] += 1
        totals[status][1] += lines
        if status in listed:
            listed[status].append(f"  {module}:{first} {name} ({lines} lines)")

    print(f"{'module':<40} {'entry':>6} {'tests':>6} {'none':>6}")
    for module, counts in sorted(per_module.items()):
        print(f"{module:<40} {counts[0]:>6} {counts[1]:>6} {counts[2]:>6}")
    for status, rows in listed.items():
        print(f"\n{status}:")
        print("\n".join(rows) or "  (none)")
    print("\n" + "; ".join(f"{status} {count} functions / {lines} lines"
                           for status, (count, lines) in totals.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
