#!/usr/bin/env python
"""Documentation drift gate.

The docs promise three kinds of machine-checkable facts, and this
script fails CI when any goes stale:

1. **CLI commands.** Every ``python -m repro ...`` /
   ``python -m repro.harness.cli ...`` invocation shown in the docs is
   resolved to its (sub)command and re-run with ``--help``; the parser
   must exist, and every ``--flag`` the doc shows must appear in that
   help text. A renamed subcommand or dropped flag fails here instead
   of silently rotting in the README.
2. **Relative links.** Every relative markdown link must point at a
   file that exists in the repository.
3. **Code names.** Every backticked dotted name ``repro.…`` must
   resolve: its longest importable module prefix is imported and the
   rest walked as attributes. A deleted module, class or function
   fails here instead of being described as if it still existed.

Usage::

    python tools/docs_check.py            # checks the default doc set
    python tools/docs_check.py FILE...    # checks specific files
"""

from __future__ import annotations

import importlib
import os
import re
import shlex
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Docs whose commands and links are contractual. PAPER/PAPERS/SNIPPETS
#: quote external material and are deliberately out of scope.
DEFAULT_DOCS = ("README.md", "ARCHITECTURE.md", "DESIGN.md",
                "EXPERIMENTS.md")

#: Modules whose command lines we verify.
MODULES = ("repro", "repro.harness.cli")

COMMAND_RE = re.compile(r"python\s+-m\s+(repro(?:\.harness\.cli)?)\s+(.*)")
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: A code span that is exactly a dotted ``repro`` name.
NAME_RE = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)`")
#: A subcommand word: lowercase letters/dashes only — operands such as
#: file paths (dots, slashes) terminate the subcommand chain.
WORD_RE = re.compile(r"^[a-z][a-z-]*$")


def _joined_lines(text: str) -> list[str]:
    """Physical lines with backslash continuations folded in."""
    lines: list[str] = []
    pending = ""
    for raw in text.splitlines():
        line = pending + raw.strip()
        if line.endswith("\\"):
            pending = line[:-1] + " "
            continue
        pending = ""
        lines.append(line)
    if pending:
        lines.append(pending)
    return lines


def extract_commands(text: str) -> list[tuple[str, list[str]]]:
    """(module, argv-after-module) for every documented invocation."""
    commands = []
    for line in _joined_lines(text):
        match = COMMAND_RE.search(line)
        if not match:
            continue
        module, rest = match.group(1), match.group(2)
        # Inline-code spans close with a backtick; prose may follow it.
        rest = rest.split("`", 1)[0].split("#", 1)[0].strip()
        try:
            tokens = shlex.split(rest)
        except ValueError:
            tokens = rest.split()
        commands.append((module, tokens))
    return commands


def check_command(module: str, tokens: list[str]) -> list[str]:
    """Resolve the subcommand chain, run ``--help``, verify flags."""
    chain: list[str] = []
    for token in tokens:
        if not WORD_RE.match(token):
            break
        chain.append(token)
    flags = sorted({token.split("=", 1)[0] for token in tokens
                    if token.startswith("--")})
    argv = [sys.executable, "-m", module, *chain, "--help"]
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.path.join(REPO_ROOT, "src")
                         + os.pathsep + env.get("PYTHONPATH", ""))
    proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                          cwd=REPO_ROOT, timeout=60)
    shown = " ".join([module, *chain])
    if proc.returncode != 0:
        detail = proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else "?"
        return [f"`python -m {shown} --help` exited {proc.returncode}: {detail}"]
    help_text = proc.stdout + proc.stderr
    # Whole-token match: a documented flag that is only a prefix of a
    # real one (``--commutative`` vs ``--commutative-fraction``) fails.
    return [f"`python -m {shown}` does not accept documented "
            f"flag {flag}" for flag in flags
            if not re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])",
                             help_text)]


def check_links(doc_path: str, text: str) -> list[str]:
    problems = []
    base = os.path.dirname(doc_path)
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        rel = target.split("#", 1)[0]
        if not rel:
            continue
        if not os.path.exists(os.path.join(base, rel)):
            problems.append(f"dead relative link: ({target})")
    return problems


def resolves(name: str) -> bool:
    """Whether dotted ``name`` is a module, or an attribute chain under
    its longest importable module prefix."""
    src = os.path.join(REPO_ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def check_names(text: str) -> list[str]:
    return [f"`{name}` does not resolve to a module or attribute"
            for name in sorted(set(NAME_RE.findall(text)))
            if not resolves(name)]


def check_doc(doc_path: str) -> list[str]:
    with open(doc_path, encoding="utf-8") as handle:
        text = handle.read()
    problems = check_links(doc_path, text) + check_names(text)
    seen: set[tuple] = set()
    for module, tokens in extract_commands(text):
        key = (module, tuple(tokens))
        if key in seen:
            continue
        seen.add(key)
        problems.extend(check_command(module, tokens))
    return problems


def main(argv: list[str]) -> int:
    docs = argv or [os.path.join(REPO_ROOT, name)
                    for name in DEFAULT_DOCS]
    failures = 0
    for doc in docs:
        name = os.path.relpath(doc, REPO_ROOT)
        problems = check_doc(doc)
        if problems:
            failures += len(problems)
            print(f"{name}: {len(problems)} problem(s)")
            for problem in problems:
                print(f"  - {problem}")
        else:
            print(f"{name}: ok")
    if failures:
        print(f"DOCS CHECK FAILED: {failures} problem(s)")
        return 1
    print("docs check ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
