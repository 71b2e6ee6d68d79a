"""Which ``src/repro`` functions does nothing reach?

    PYTHONPATH=src:. python benchmarks/reachability.py [--report PATH]

Runs the union of the repository's entry points under a line tracer
(``sys.settrace`` plus ``threading.settrace``, so pool and worker
threads count too):

- the four e2e workloads through ``benchmarks.e2e.harness.run_workload``
  at seed 1, a few seconds each;
- the named scenario packs;
- the D1–D13 experiments (``pytest --benchmark-disable``);
- ``benchmarks/failover_drill.py`` and ``benchmarks/ci_gate.py``;
- every CLI verb, ``scenarios run <spec.json>`` included;
- ``tests/api`` and ``tests/cluster/test_router.py``;
- ``examples/*.py``, each from request id 1, as it runs on its own.

It then lists every named function in ``src/repro`` whose code was
never entered, and counts the executable lines that never ran.  It
exits 1 on a never-entered function that ``reachability_allow.txt``
does not list, and on an allow-list entry that is stale (its function
ran, or is gone).  ``--report PATH`` writes the full result as JSON.

The allow list holds one entry a line, ``path:qualname  <class>:
reason``; the classes are in ``ALLOW_CLASSES``.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import dis
import inspect
import io
import itertools
import json
import os
import runpy
import sys
import tempfile
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Set, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(HERE)
SRC_ROOT = os.path.join(REPO_ROOT, "src", "repro")
ALLOW_PATH = os.path.join(HERE, "reachability_allow.txt")

#: Why a never-entered function may stay.
ALLOW_CLASSES = {
    "verifier": "an index verifier or invariant check",
    "fault-path": "a fault, unwind, compensation or timeout path",
    "null-object": "a method of a null object, or a default that does nothing",
    "reference": "the scalar reference an array or index path is tested against",
    "pinned": "named by benchmarks/e2e (SPAN_TABLE or an import)",
    "input": "reachable from an example, a spec file or a v1 route input",
}

#: (path relative to the repo root, qualname, first line) of one function.
FunctionKey = Tuple[str, str, int]


def parse_allow_list(text: str) -> List[Tuple[int, str, str, str, str]]:
    """``(line number, path, qualname, class, reason)`` per entry; blank
    lines and ``#`` comments are skipped.  Raises ``ValueError`` on a
    malformed line."""
    entries = []
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        target, _, rest = line.partition(" ")
        kind, sep, reason = rest.strip().partition(":")
        path, _, qualname = target.partition(":")
        if not (path and qualname and sep and reason.strip()):
            raise ValueError(f"line {number}: expected 'path:qualname  class: reason'")
        entries.append((number, path, qualname, kind.strip(), reason.strip()))
    return entries


# ----------------------------------------------------------------------
# What could run
# ----------------------------------------------------------------------
def ast_functions(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """``(qualname, node)`` of every ``def`` in ``tree``, qualified the
    way ``code.co_qualname`` is."""

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                yield qualname, child
                yield from walk(child, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")


def _is_abstract(node: ast.AST) -> bool:
    """An ``abc.abstractmethod`` declaration: nothing in it can run."""
    return any(
        (isinstance(d, ast.Attribute) and d.attr == "abstractmethod")
        or (isinstance(d, ast.Name) and d.id == "abstractmethod")
        for d in node.decorator_list
    )


def _is_function(code) -> bool:
    return bool(code.co_flags & inspect.CO_OPTIMIZED)


def _lines(code) -> Set[int]:
    """The lines a call of ``code`` can run; the first one is the
    ``def`` (or first decorator), which is traced as the call itself."""
    return {line for _, line in dis.findlinestarts(code) if line is not None} - {
        code.co_firstlineno
    }


def _walk(code):
    yield code
    for const in code.co_consts:
        if inspect.iscode(const):
            yield from _walk(const)


def source_inventory() -> Tuple[Dict[FunctionKey, Set[int]], Dict[str, Set[int]]]:
    """Named functions (with their lines) and the executable lines of
    every function body, comprehension and lambda, per file."""
    functions: Dict[FunctionKey, Set[int]] = {}
    executable: Dict[str, Set[int]] = defaultdict(set)
    for folder, _dirs, files in os.walk(SRC_ROOT):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            rel = os.path.relpath(path, REPO_ROOT)
            with open(path) as handle:
                text = handle.read()
            abstract = {
                qualname for qualname, node in ast_functions(ast.parse(text))
                if _is_abstract(node)
            }
            for code in _walk(compile(text, path, "exec")):
                if not _is_function(code) or code.co_qualname in abstract:
                    continue
                lines = _lines(code)
                executable[rel] |= lines
                if not code.co_name.startswith("<"):
                    functions[(rel, code.co_qualname, code.co_firstlineno)] = lines
    return functions, executable


# ----------------------------------------------------------------------
# What ran
# ----------------------------------------------------------------------
class LineTracer:
    """Records every ``src/repro`` code object entered and every line it
    ran.  A code object stops being line-traced once all of its lines
    have run."""

    def __init__(self) -> None:
        self.entered: Set[FunctionKey] = set()
        self.ran: Dict[object, Set[int]] = {}
        self._size: Dict[object, int] = {}
        self._prefix = SRC_ROOT + os.sep

    def _call(self, frame, event, arg):
        code = frame.f_code
        seen = self.ran.get(code)
        if seen is None:
            if not code.co_filename.startswith(self._prefix):
                return None
            seen = self.ran.setdefault(code, set())
            self._size[code] = len(_lines(code))
            self.entered.add(
                (os.path.relpath(code.co_filename, REPO_ROOT), code.co_qualname,
                 code.co_firstlineno)
            )
        if len(seen) >= self._size[code]:
            return None
        return self._line

    def _line(self, frame, event, arg):
        if event == "line":
            self.ran[frame.f_code].add(frame.f_lineno)
        return self._line

    def __enter__(self) -> "LineTracer":
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def lines_ran(self) -> Dict[str, Set[int]]:
        by_file: Dict[str, Set[int]] = defaultdict(set)
        for code, lines in list(self.ran.items()):
            by_file[os.path.relpath(code.co_filename, REPO_ROOT)] |= lines
        return by_file


# ----------------------------------------------------------------------
# The entry points
# ----------------------------------------------------------------------
def _pytest(*args: str) -> int:
    import pytest

    return int(pytest.main(["-q", "-p", "no:cacheprovider", *args]))


def _e2e_workloads(scratch: str) -> int:
    from benchmarks.e2e.harness import run_workload
    from benchmarks.e2e.workloads import WORKLOADS

    for name in sorted(WORKLOADS):
        run_workload(name, seed=1, seconds=3.0, trace=False)
    return 0


def _scenario_packs(scratch: str) -> int:
    from repro.scenarios import build_named, named_scenarios, run_scenario

    dirty = 0
    for name in named_scenarios():
        report = run_scenario(build_named(name, seed=1))
        dirty += not report.clean
    return dirty


def _experiments(scratch: str) -> int:
    benches = sorted(
        os.path.join(HERE, name) for name in os.listdir(HERE)
        if name.startswith("bench_d") and name.endswith(".py")
    )
    return _pytest("--benchmark-disable", *benches)


def _failover_drill(scratch: str) -> int:
    from benchmarks import failover_drill

    return failover_drill.main(["--out", os.path.join(scratch, "DRILL.json")])


def _ci_gate(scratch: str) -> int:
    from benchmarks import ci_gate

    return ci_gate.main(["--out", os.path.join(scratch, "BENCH_ci.json")])


def _cli_verbs(scratch: str) -> int:
    from repro.cli import main
    from repro.scenarios import build_named

    spec_path = os.path.join(scratch, "spec.json")
    with open(spec_path, "w") as handle:
        handle.write(build_named("commuter-failure-smoke", seed=3).canonical_json())
    verbs = [
        ["demo", "--hours", "0.5"],
        ["scenario", "--hours", "0.5", "--overbooking", "fixed:1.5", "--json"],
        ["scenario", "--hours", "0.5", "--admission", "knapsack", "--mix", "embb"],
        ["scenarios", "list"],
        ["scenarios", "run", "commuter-failure-smoke", "--seed", "42",
         "--out", os.path.join(scratch, "report.json")],
        ["scenarios", "run", spec_path, "--json"],
        ["sweep", "--hours", "0.5", "--factors", "1.0", "2.0"],
        ["experiments"],
    ]
    return sum(bool(main(argv)) for argv in verbs)


def _api_tests(scratch: str) -> int:
    return _pytest(
        os.path.join(REPO_ROOT, "tests", "api"),
        os.path.join(REPO_ROOT, "tests", "cluster", "test_router.py"),
    )


def _examples(scratch: str) -> int:
    from repro.core import slices

    folder = os.path.join(REPO_ROOT, "examples")
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py"):
            # Each example runs as it does on its own: request ids (and so
            # the profiles keyed by them) restart, not continue from the
            # count the wall-clock-bounded entries above left behind.
            slices._request_counter = itertools.count(1)
            runpy.run_path(os.path.join(folder, name), run_name="__main__")
    return 0


ENTRY_POINTS: List[Tuple[str, Callable[[str], int]]] = [
    ("e2e workloads", _e2e_workloads),
    ("scenario packs", _scenario_packs),
    ("experiments D1-D13", _experiments),
    ("failover drill", _failover_drill),
    ("ci gate", _ci_gate),
    ("cli verbs", _cli_verbs),
    ("api + router tests", _api_tests),
    ("examples", _examples),
]


def _run_entry(name: str, entry: Callable[[str], int], scratch: str) -> str:
    started = time.perf_counter()
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink):
            code = entry(scratch)
        status = "ok" if not code else f"exit {code}"
    except SystemExit as exc:
        status = "ok" if not exc.code else f"exit {exc.code}"
    except Exception as exc:  # reported; what ran still counts
        status = f"raised {type(exc).__name__}: {exc}"
    print(f"  {name}: {status} ({time.perf_counter() - started:.0f} s)", file=sys.stderr)
    if status != "ok":
        print("".join(sink.getvalue().splitlines(True)[-40:]), file=sys.stderr)
    return status


# ----------------------------------------------------------------------
# The verdict
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--report", default=None, help="write the full result as JSON")
    args = parser.parse_args(argv)
    functions, executable = source_inventory()
    statuses = {}
    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        with LineTracer() as tracer:
            for name, entry in ENTRY_POINTS:
                statuses[name] = _run_entry(name, entry, scratch)
    ran = tracer.lines_ran()

    never = sorted(key for key in functions if key not in tracer.entered)
    never_names = {(path, qualname) for path, qualname, _ in never}
    total_lines = sum(len(lines) for lines in executable.values())
    unexecuted = {
        path: sorted(lines - ran.get(path, set())) for path, lines in executable.items()
    }
    unexecuted_count = sum(len(lines) for lines in unexecuted.values())

    with open(ALLOW_PATH) as handle:
        allowed = parse_allow_list(handle.read())
    allowed_names = {(path, qualname) for _, path, qualname, _, _ in allowed}
    missing = sorted(name for name in never_names if name not in allowed_names)
    stale = sorted(
        (number, path, qualname) for number, path, qualname, _, _ in allowed
        if (path, qualname) not in never_names
    )

    print(f"functions: {len(functions)}, never entered: {len(never)}")
    print(f"executable lines: {total_lines}, never run: {unexecuted_count}")
    if args.report:
        os.makedirs(os.path.dirname(args.report) or ".", exist_ok=True)
        with open(args.report, "w") as handle:
            json.dump(
                {
                    "entry_points": statuses,
                    "functions": len(functions),
                    "never_entered": [
                        {"path": p, "qualname": q, "line": n,
                         "lines": len(functions[(p, q, n)])}
                        for p, q, n in never
                    ],
                    "executable_lines": total_lines,
                    "unexecuted_lines": unexecuted_count,
                    "unexecuted": {p: lines for p, lines in unexecuted.items() if lines},
                },
                handle, indent=1, sort_keys=True,
            )
    for path, qualname in missing:
        print(f"NEVER ENTERED, NOT ALLOWED: {path}:{qualname}")
    for number, path, qualname in stale:
        print(f"STALE ALLOW ENTRY (line {number}): {path}:{qualname}")
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
