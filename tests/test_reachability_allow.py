"""The reachability allow list stays well-formed.

``benchmarks/reachability.py`` (a nightly job) fails on a never-entered
``src/repro`` function the list does not name; this fast check keeps
the list itself honest: every entry names a function that exists, with
a known class and a reason, once.
"""

import ast
import importlib.util
import pathlib

REPO = pathlib.Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location(
    "reachability", REPO / "benchmarks" / "reachability.py"
)
reachability = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(reachability)

ENTRIES = reachability.parse_allow_list(pathlib.Path(reachability.ALLOW_PATH).read_text())


def test_the_list_is_not_empty():
    assert ENTRIES


def test_every_entry_resolves_to_a_src_repro_function():
    unresolved = []
    for number, path, qualname, _kind, _reason in ENTRIES:
        source = REPO / path
        if not path.startswith("src/repro/") or not source.is_file():
            unresolved.append((number, path))
            continue
        names = {name for name, _node in reachability.ast_functions(ast.parse(source.read_text()))}
        if qualname not in names:
            unresolved.append((number, f"{path}:{qualname}"))
    assert not unresolved, unresolved


def test_every_entry_has_a_known_class_and_a_reason():
    bad = [
        (number, kind) for number, _p, _q, kind, reason in ENTRIES
        if kind not in reachability.ALLOW_CLASSES or not reason
    ]
    assert not bad, bad


def test_no_entry_appears_twice():
    seen, twice = set(), []
    for number, path, qualname, _kind, _reason in ENTRIES:
        if (path, qualname) in seen:
            twice.append((number, f"{path}:{qualname}"))
        seen.add((path, qualname))
    assert not twice, twice
