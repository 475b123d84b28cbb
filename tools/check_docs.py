#!/usr/bin/env python
"""Documentation lint: dead relative links, CLI flags, wire verbs, and
the test environment's declared imports.

Five checks, all cheap enough to run on every push (the CI
``docs-check`` job):

1. **Dead links** — every relative markdown link in ``README.md`` and
   ``docs/*.md`` must resolve to an existing file (anchors are
   stripped; external ``http(s)``/``mailto`` targets are skipped).
2. **Flag coverage** — every public long flag of the ``repro`` CLI
   (walked live out of the argparse tree, so the list can never go
   stale) must be mentioned in at least one document.  A flag nobody
   documents is a flag nobody finds.
3. **No stale flags** — every ``--flag`` in a flag column (a column
   whose header names a flag, such as ``docs/pql_reference.md``'s
   ``flag`` or ``docs/serving.md``'s ``CLI flag``) of any table in
   ``README.md`` or ``docs/*.md`` must exist in the CLI, so a retired
   flag cannot linger in a reference table.
4. **No stale wire verbs** — every ``{"op": "X"`` example in
   ``README.md`` or ``docs/*.md`` must name a verb of
   ``repro.serve.protocol``, so a retired verb cannot linger in an
   example.
5. **Declared test imports** — every third-party package a module
   under ``tests/`` or ``benchmarks/`` imports (anything that is
   neither the standard library nor a module of this repository) must
   be declared in ``pyproject.toml``: a dependency or the ``dev``
   extra, which is what every CI job that runs tests installs.

Exit code 0 when clean; 1 with one ``PROBLEM:`` line per finding.

Usage::

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
import tomllib
from pathlib import Path
from typing import Dict, List, Set

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Markdown inline links: [text](target) — images share the syntax.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_EXTERNAL = ("http://", "https://", "mailto:")
#: A JSON-lines request example: {"op": "X" ...
_WIRE_OP = re.compile(r'\{"op":\s*"([^"]*)"')


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


def check_flag_tables(files: List[Path]) -> List[str]:
    """Flags that a table's flag column lists but the CLI does not accept."""
    known = public_flags()
    problems = []
    for path in files:
        flag_columns: List[int] = []  # of the table being read; [] outside one
        previous = ""
        for line in path.read_text().splitlines():
            cells = line.split("|")
            if not line.startswith("|"):
                flag_columns = []
            elif not previous.startswith("|"):  # a header row
                flag_columns = [i for i, cell in enumerate(cells)
                                if "flag" in cell.lower()]
            else:
                for i in flag_columns:
                    for flag in re.findall(r"--[a-z][a-z0-9-]*", cells[i]):
                        if flag not in known:
                            problems.append(
                                f"{path.relative_to(REPO_ROOT)}: flag table lists "
                                f"{flag}, which the CLI does not accept"
                            )
            previous = line
    return problems


def check_wire_verbs(files: List[Path]) -> List[str]:
    """Request examples whose ``op`` the serve protocol does not accept."""
    from repro.serve.protocol import _OPS

    return [
        f"{path.relative_to(REPO_ROOT)}: example uses wire verb {op!r}, "
        f"which the serve protocol does not accept"
        for path in files for op in _WIRE_OP.findall(path.read_text())
        if op not in _OPS
    ]


def declared_packages() -> Set[str]:
    """Import names of ``pyproject.toml``'s dependencies and ``dev`` extra."""
    project = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["dev"]
    return {re.split(r"[<>=!~;\[ ]", req, 1)[0].lower().replace("-", "_")
            for req in requirements}


def check_test_imports() -> List[str]:
    """Third-party imports under tests/ and benchmarks/ that pyproject
    does not declare."""
    local = {"repro", "tests", "benchmarks", "tools"}
    for base in ("src", "tests", "benchmarks", "tools"):
        for path in (REPO_ROOT / base).rglob("*"):
            if path.suffix == ".py" or path.is_dir():
                local.add(path.stem)
    allowed = local | set(sys.stdlib_module_names) | declared_packages()
    problems = []
    for base in ("tests", "benchmarks"):
        for path in sorted((REPO_ROOT / base).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                problems.extend(
                    f"{path.relative_to(REPO_ROOT)}:{node.lineno}: imports {top!r}, "
                    f"which pyproject.toml does not declare (dependencies or the dev extra)"
                    for top in {name.split(".")[0] for name in names} - allowed
                )
    return problems


def main() -> int:
    files = doc_files()
    problems = (check_links(files) + check_flag_coverage(files)
                + check_flag_tables(files) + check_wire_verbs(files)
                + check_test_imports())
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
