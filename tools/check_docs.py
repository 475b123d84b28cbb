#!/usr/bin/env python
"""Documentation lint: dead relative links + CLI flag coverage.

Three checks, all cheap enough to run on every push (the CI
``docs-check`` job):

1. **Dead links** — every relative markdown link in ``README.md`` and
   ``docs/*.md`` must resolve to an existing file (anchors are
   stripped; external ``http(s)``/``mailto`` targets are skipped).
2. **Flag coverage** — every public long flag of the ``repro`` CLI
   (walked live out of the argparse tree, so the list can never go
   stale) must be mentioned in at least one document.  A flag nobody
   documents is a flag nobody finds.
3. **No stale flags** — every ``--flag`` in the first column of the
   flag table in ``docs/pql_reference.md`` must exist in the CLI, so a
   retired flag cannot linger in the reference.

Exit code 0 when clean; 1 with one ``PROBLEM:`` line per finding.

Usage::

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
FLAG_TABLE = REPO_ROOT / "docs" / "pql_reference.md"

#: Markdown inline links: [text](target) — images share the syntax.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_EXTERNAL = ("http://", "https://", "mailto:")


def doc_files() -> List[Path]:
    return [REPO_ROOT / "README.md"] + sorted((REPO_ROOT / "docs").glob("*.md"))


def check_links(files: List[Path]) -> List[str]:
    problems = []
    for path in files:
        for target in _LINK.findall(path.read_text()):
            if target.startswith(_EXTERNAL):
                continue
            resolved = target.split("#", 1)[0]
            if not resolved:  # pure in-page anchor
                continue
            if not (path.parent / resolved).exists():
                problems.append(
                    f"{path.relative_to(REPO_ROOT)}: dead link -> {target}"
                )
    return problems


def public_flags() -> Dict[str, List[str]]:
    """Every long option flag per subcommand (``registry fsck`` and the
    other nested ones included), straight from argparse."""
    from repro.cli import _build_parser

    flags: Dict[str, List[str]] = {}

    def walk(parser: argparse.ArgumentParser, command: str) -> None:
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    walk(sub, f"{command} {name}".strip())
            for option in action.option_strings:
                if option.startswith("--") and option != "--help" and command:
                    flags.setdefault(option, []).append(command)

    walk(_build_parser(), "")
    return flags


def check_flag_coverage(files: List[Path]) -> List[str]:
    corpus = "\n".join(path.read_text() for path in files)
    problems = []
    for flag, commands in sorted(public_flags().items()):
        if flag not in corpus:
            problems.append(
                f"flag {flag} ({'/'.join(sorted(set(commands)))}) is not "
                f"mentioned in README.md or any docs/*.md"
            )
    return problems


def check_flag_table(path: Path = FLAG_TABLE) -> List[str]:
    """Flags the reference's ``| flag | subcommands | meaning |`` table
    lists that the CLI does not accept."""
    known = public_flags()
    problems = []
    in_table = False
    for line in path.read_text().splitlines():
        if line.startswith("| flag |"):
            in_table = True
        elif in_table and not line.startswith("|"):
            in_table = False
        elif in_table:
            for flag in re.findall(r"--[a-z][a-z0-9-]*", line.split("|")[1]):
                if flag not in known:
                    problems.append(
                        f"{path.relative_to(REPO_ROOT)}: flag table lists {flag}, "
                        f"which the CLI does not accept"
                    )
    return problems


def main() -> int:
    files = doc_files()
    problems = check_links(files) + check_flag_coverage(files) + check_flag_table()
    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    if problems:
        print(f"{len(problems)} documentation problem(s)", file=sys.stderr)
        return 1
    flags = len(public_flags())
    print(f"docs ok: {len(files)} files link-clean, {flags} CLI flags all documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
