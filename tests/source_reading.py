"""Read ``src/repro`` as text: the helpers behind the "one code path,
as the source reads" tests."""

from __future__ import annotations

import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def source_of(relative: str) -> str:
    return (SRC / relative).read_text(encoding="utf-8")


def src_lines_matching(pattern: str, *roots: str) -> list:
    """``file:line`` of every line under ``roots`` (all of ``src/repro``
    when none) that matches ``pattern``."""
    hits = []
    for root in roots or (".",):
        target = SRC / root
        for path in [target] if target.is_file() else sorted(target.rglob("*.py")):
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
                if re.search(pattern, line):
                    hits.append(f"{path.relative_to(SRC)}:{number}")
    return hits


def enclosing_functions(source: str, pattern: str) -> list:
    """Names of the functions whose bodies contain ``pattern``."""
    found, current = [], None
    for line in source.splitlines():
        header = re.match(r"\s*def (\w+)\(", line)
        if header:
            current = header.group(1)
        elif re.search(pattern, line):
            found.append(current)
    return found
