"""Source loading for the analysis engine.

A :class:`Module` bundles everything a rule needs about one file: the parsed
AST, the raw source lines, the per-line comments (extracted with
:mod:`tokenize`, which is how the ``# guarded-by:`` convention is read), and
the module's *logical* dotted name.  The logical name is what rules scoped to
parts of the project key on (``repro.core.decomposition`` must stay pure,
``repro.cli`` may catch broadly); it is derived from the file's location
under a ``src`` layout, and can be overridden by a first-lines directive::

    # repro-lint-module: repro.core.decomposition

which is how test fixtures exercise module-scoped rules from arbitrary
paths.

A :class:`Project` is the set of modules under analysis; the whole-program
semantic model (:mod:`repro.analysis.semantic`) is built from it.
"""

from __future__ import annotations

import ast
import io
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

__all__ = ["Module", "Project", "load_project"]

_MODULE_DIRECTIVE = "# repro-lint-module:"


@dataclass
class Module:
    """One analyzable source file."""

    path: Path
    display_path: str
    logical_name: str
    source: str
    tree: ast.Module
    #: line number -> comment text (including the leading ``#``).
    comments: dict[int, str] = field(default_factory=dict)

    def comment_on(self, line: int) -> str:
        """The comment on a source line (trailing or whole-line), or ``""``."""
        return self.comments.get(line, "")


@dataclass
class Project:
    """All modules of one analysis run."""

    modules: list[Module]

    def __iter__(self) -> Iterator[Module]:
        return iter(self.modules)


def _extract_comments(source: str) -> dict[int, str]:
    comments: dict[int, str] = {}
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                comments[token.start[0]] = token.string
    except tokenize.TokenError:
        pass  # a syntactically valid file can still end mid-token for tokenize
    return comments


def _logical_name(path: Path, source: str) -> str:
    for raw_line in source.splitlines()[:5]:
        line = raw_line.strip()
        if line.startswith(_MODULE_DIRECTIVE):
            return line[len(_MODULE_DIRECTIVE) :].strip()
    parts = list(path.resolve().parts)
    stem = [*parts[:-1], path.stem] if path.stem != "__init__" else parts[:-1]
    for anchor in ("src", "site-packages"):
        if anchor in stem:
            dotted = stem[stem.index(anchor) + 1 :]
            if dotted:
                return ".".join(dotted)
    return path.stem


def _display_path(path: Path, root: Path | None) -> str:
    if root is not None:
        try:
            return path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()


def load_module(path: Path, *, root: Path | None = None) -> Module | None:
    """Parse one file into a :class:`Module`; unparsable files are skipped
    (the Python toolchain itself will report them — syntax errors are not
    this engine's findings)."""
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, ValueError):
        return None
    return Module(
        path=path,
        display_path=_display_path(path, root),
        logical_name=_logical_name(path, source),
        source=source,
        tree=tree,
        comments=_extract_comments(source),
    )


def iter_source_files(paths: list[Path]) -> Iterator[Path]:
    """Expand files and directories into ``.py`` files, sorted for stable
    finding order (cache directories are never interesting).  A path that
    does not exist raises :class:`FileNotFoundError`."""
    seen: set[Path] = set()
    for path in paths:
        if not path.exists():
            raise FileNotFoundError(f"no such file or directory: '{path}'")
        if path.is_dir():
            candidates = sorted(
                candidate
                for candidate in path.rglob("*.py")
                if "__pycache__" not in candidate.parts
            )
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def load_project(paths: list[Path], *, root: Path | None = None) -> Project:
    """Load every Python file under the given paths into a :class:`Project`."""
    modules = []
    for file_path in iter_source_files(paths):
        module = load_module(file_path, root=root)
        if module is not None:
            modules.append(module)
    return Project(modules=modules)
