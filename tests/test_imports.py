"""Every module of the package, every demo and every test uses each name it imports
(the package's ``__init__`` re-exports), every command-line option is read by the
handler its subcommand dispatches to, and importing the package loads no scipy."""

import argparse
import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from jsda.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jsda"
# a package module by its file name, a demo or test as demos/<name> or tests/<name>
SOURCES = [*sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
           *sorted(str(p.relative_to(ROOT)) for d in ("demos", "tests")
                   for p in (ROOT / d).glob("*.py"))]


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression of ``source`` reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - read)


def test_scanner_finds_an_unused_import():
    source = ("import math\nimport os.path\nfrom typing import Literal as L, Sequence\n"
              "x: Sequence = [math.pi]\n")
    assert unused_imports(source) == ["L", "os"]


@pytest.mark.parametrize("source", SOURCES)
def test_no_unused_import(source):
    path = ROOT / source if "/" in source else PACKAGE / source
    assert unused_imports(path.read_text()) == []


def unread_options(parser: argparse.ArgumentParser) -> list[str]:
    """'prog --flag' for each option of ``parser`` and of its subcommands that the
    handler it dispatches to (its ``func`` default) does not read as ``args.<dest>``;
    a parser with subcommands has no handler of its own."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    func = None if subs else parser.get_default("func")
    source = inspect.getsource(func) if func else ""
    unread = [f"{parser.prog} {a.option_strings[-1]}" for a in parser._actions
              if a.option_strings and not isinstance(a, argparse._HelpAction)
              and not re.search(rf"\bargs\.{a.dest}\b", source)]
    return unread + [u for a in subs for p in a.choices.values() for u in unread_options(p)]


def test_scanner_finds_an_unread_option():
    def handler(args):
        return args.kept, args.kept_too

    parser = argparse.ArgumentParser(prog="toy")
    parser.add_argument("--top")
    p = parser.add_subparsers().add_parser("run")
    for flag in ("--kept", "--kept-too", "--kept_t", "--dropped"):
        p.add_argument(flag)
    p.set_defaults(func=handler)
    assert unread_options(parser) == ["toy --top", "toy run --kept_t", "toy run --dropped"]


def test_every_cli_option_is_read_by_its_handler():
    assert unread_options(build_parser()) == []


def test_import_leaves_scipy_unloaded():
    """The kernels import ``scipy.special`` on first use: loaded with the package, it
    would double the start-up time of every command."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    code = ("import sys, jsda, jsda.cli; "
            "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0
