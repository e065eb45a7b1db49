"""dclint engine: run the rules over sources, files, and directory trees.

Entry points:

* :func:`analyze_dync_source` -- Layer 1 over one Dynamic C string.
* :func:`analyze_python_source` -- Layer 2 over one Python string, plus
  Layer 1 over any embedded Dynamic C literals it contains.
* :func:`analyze_paths` -- dispatch by suffix (``.c``/``.dc`` vs
  ``.py``) over files and directory trees.

A line containing ``dclint: allow(DC001)`` (in a comment; several rules
comma-separated) suppresses those rules on that line and the next --
the escape hatch for deliberate demonstrations of the bug classes.

``analyze_paths(..., jobs=N)`` fans individual files out across a
process pool and merges per-file results in input order
(:func:`repro.fanout.ordered_map`), so the diagnostic stream is
byte-identical at any job count.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib

from repro.analysis.config import ALLOW_RE, DEFAULT_CONFIG, LintConfig
from repro.analysis.pychecks import (
    check_determinism,
    check_python_source,
    extract_embedded_sources,
)
from repro.analysis.rules import run_all
from repro.diagnostics import Diagnostic, DiagnosticSink, Severity
from repro.dync.compiler.lexer import LexError
from repro.dync.compiler.parser import ParseError, parse
from repro.fanout import ordered_map

#: Suffixes treated as standalone Dynamic C sources.
DYNC_SUFFIXES = (".c", ".dc")


def _suppressions(source: str) -> dict[int, set[str]]:
    """Map line number -> rule ids silenced on that line."""
    allowed: dict[int, set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = ALLOW_RE.search(text)
        if match:
            rules = {r.strip() for r in match.group(1).split(",") if r.strip()}
            allowed.setdefault(lineno, set()).update(rules)
            allowed.setdefault(lineno + 1, set()).update(rules)
    return allowed


def _apply_suppressions(diagnostics: list[Diagnostic],
                        source: str) -> list[Diagnostic]:
    allowed = _suppressions(source)
    if not allowed:
        return diagnostics
    return [d for d in diagnostics if d.rule not in allowed.get(d.line, ())]


def analyze_dync_source(source: str, file: str = "<source>",
                        config: LintConfig = DEFAULT_CONFIG,
                        line_offset: int = 0) -> list[Diagnostic]:
    """Lint one Dynamic C subset source string (Layer 1, DC001..DC006).

    ``line_offset`` shifts reported lines, for sources embedded inside a
    host file (offset = host line of the literal's first line).
    """
    sink = DiagnosticSink(file=file)
    try:
        program = parse(source)
    except (LexError, ParseError) as error:
        sink.diagnostics.append(
            dataclasses.replace(error.diagnostic, file=file,
                                line=error.diagnostic.line + line_offset)
        )
        return sink.diagnostics
    run_all(program, sink, config)
    diagnostics = _apply_suppressions(sink.diagnostics, source)
    if line_offset:
        diagnostics = [dataclasses.replace(d, line=d.line + line_offset)
                       for d in diagnostics]
    return diagnostics


def analyze_python_source(source: str, file: str = "<source>",
                          config: LintConfig = DEFAULT_CONFIG
                          ) -> list[Diagnostic]:
    """Lint one Python source string (Layer 2 + embedded Layer 1)."""
    sink = DiagnosticSink(file=file)
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        sink.error("PY000", f"not parseable as Python: {error.msg}",
                   line=error.lineno or 0, col=error.offset or 0)
        return sink.diagnostics
    check_python_source(tree, sink)
    check_determinism(tree, sink)
    diagnostics = _apply_suppressions(sink.diagnostics, source)
    for lineno, embedded in extract_embedded_sources(tree):
        diagnostics.extend(
            analyze_dync_source(embedded, file=file, config=config,
                                line_offset=lineno - 1)
        )
    return diagnostics


def expand_paths(paths) -> list[pathlib.Path]:
    """Flatten files-and-directories into the lintable file list."""
    files: list[pathlib.Path] = []
    for path in paths:
        path = pathlib.Path(path)
        if path.is_dir():
            files.extend(sorted(
                p for p in path.rglob("*")
                if p.suffix in DYNC_SUFFIXES + (".py",)
                and "__pycache__" not in p.parts
            ))
        else:
            files.append(path)
    return files


def _analyze_file(task: tuple[str, LintConfig]) -> list[Diagnostic]:
    """One file's diagnostics (module-level so Pool.map can pickle it)."""
    file_, config = task
    path = pathlib.Path(file_)
    source = path.read_text()
    if path.suffix in DYNC_SUFFIXES:
        return analyze_dync_source(source, file=str(path), config=config)
    return analyze_python_source(source, file=str(path), config=config)


def analyze_paths(paths, config: LintConfig = DEFAULT_CONFIG,
                  jobs: int = 1) -> list[Diagnostic]:
    """Lint many paths; ``jobs > 1`` fans files across a process pool.

    The fan-out preserves input order, so the merged stream -- and the
    final sorted output -- is identical at any job count.
    """
    files = expand_paths(paths)
    tasks = [(str(file_), config) for file_ in files]
    per_file = ordered_map(_analyze_file, tasks, jobs)
    diagnostics = [d for file_diags in per_file for d in file_diags]
    return sorted(diagnostics, key=Diagnostic.sort_key)


def worst_severity(diagnostics: list[Diagnostic]) -> Severity | None:
    return max((d.severity for d in diagnostics), default=None)
