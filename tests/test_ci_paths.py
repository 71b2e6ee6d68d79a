"""Every ``tests/…`` or ``benchmarks/…`` path a CI workflow names exists.

A workflow that runs a deleted test file fails only when it runs, which
for the nightly jobs is the next night; this check fails at once.
"""

import pathlib
import re

REPO = pathlib.Path(__file__).resolve().parent.parent
WORKFLOWS = sorted((REPO / ".github" / "workflows").glob("*.yml"))
PATH = re.compile(r"\b(?:tests|benchmarks)/[A-Za-z0-9_./-]*")


def named_paths():
    for workflow in WORKFLOWS:
        for match in PATH.finditer(workflow.read_text()):
            yield workflow.name, match.group(0).rstrip(".")


def test_workflows_are_found():
    assert WORKFLOWS


def test_every_path_a_workflow_names_exists():
    missing = [(name, path) for name, path in named_paths() if not (REPO / path).exists()]
    assert not missing, missing
