"""Per-file analysis context shared by every lint rule.

One :class:`FileContext` wraps a parsed module with everything rules need
beyond the bare AST:

* **comments** — a line-indexed comment map (via :mod:`tokenize`), the
  carrier for inline suppressions (``# lint: ignore[rule-id]``), region
  markers (``# lint: hot-region``, ``# lint: worker-thread``) and lock
  annotations (``# guarded-by: <lock>``);
* **alias resolution** — ``import numpy as np`` / ``from time import
  perf_counter`` are folded into qualified dotted names, so rules match
  ``numpy.random.rand`` no matter how the module spelled it;
* **structure** — parent links, enclosing-function lookup, and the set of
  nodes that live inside type annotations (skipped by value-flow rules:
  ``x: np.ndarray`` is not a numpy *call*).

Contexts are built once per file by the runner and handed to every rule.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from functools import cached_property

#: ``# lint: ignore[rule-a, rule-b]`` or a bare ``# lint: ignore``
_IGNORE_RE = re.compile(r"lint:\s*ignore(?:\[([^\]]*)\])?")
#: ``# lint: hot-region`` / ``# lint: worker-thread``
_MARKER_RE = re.compile(r"lint:\s*(hot-region|worker-thread)\b")
#: ``# guarded-by: <lock>`` (an attribute name on self, or ``loop``)
_GUARDED_RE = re.compile(r"guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")

#: decorator names recognised as region markers (the decorator-registry
#: alternative to comment markers; see :mod:`repro.lint.markers`)
HOT_REGION_DECORATORS = frozenset({"hot_region"})
WORKER_THREAD_DECORATORS = frozenset({"worker_thread"})


@dataclass
class Suppression:
    """One inline ignore comment: which rules it silences (empty = all)."""

    line: int
    rules: frozenset[str]  #: empty frozenset means "every rule"

    def covers(self, rule_id: str) -> bool:
        return not self.rules or rule_id in self.rules


def module_key(path: str) -> str:
    """The repo-relative classification key rules scope on.

    Paths inside the installed package are normalised to their
    package-relative form (``.../src/repro/core/batch.py`` →
    ``core/batch.py``), so scope configuration is stable no matter where
    the tree was scanned from.  Paths outside a ``repro`` package keep
    their scanned relative form (``benchmarks/conftest.py``).
    """
    p = path.replace("\\", "/")
    for anchor in ("/src/repro/", "src/repro/", "/repro/", "repro/"):
        idx = p.find(anchor)
        if idx != -1:
            return p[idx + len(anchor):]
    return p.lstrip("./")


class FileContext:
    """Everything rules need to analyse one parsed source file."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.module = module_key(path)
        self.lines = source.splitlines()
        #: line -> comment text (without the leading ``#``)
        self.comments: dict[int, str] = {}
        #: lines that contain *only* a comment (suppressions there apply to
        #: the following statement line)
        self.own_line_comments: set[int] = set()
        self._scan_comments()
        self.suppressions: dict[int, Suppression] = {
            line: supp for line, supp in self._parse_suppressions()
        }
        #: marker kind -> lines where the marker comment appears
        self.marker_lines: dict[str, list[int]] = {
            "hot-region": [],
            "worker-thread": [],
        }
        for line, text in self.comments.items():
            m = _MARKER_RE.search(text)
            if m:
                self.marker_lines[m.group(1)].append(line)
        #: line -> lock name from a ``# guarded-by:`` annotation
        self.guard_comments: dict[int, str] = {}
        for line, text in self.comments.items():
            g = _GUARDED_RE.search(text)
            if g:
                self.guard_comments[line] = g.group(1)

    # ------------------------------------------------------------- comments

    def _scan_comments(self) -> None:
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.source).readline)
            for tok in tokens:
                if tok.type == tokenize.COMMENT:
                    line = tok.start[0]
                    self.comments[line] = tok.string.lstrip("#").strip()
                    prefix = self.lines[line - 1][: tok.start[1]]
                    if not prefix.strip():
                        self.own_line_comments.add(line)
        except (tokenize.TokenError, IndentationError):  # pragma: no cover
            # ast.parse succeeded, so this is effectively unreachable; a
            # comment-less context only loses suppressions/markers.
            pass

    def _parse_suppressions(self):
        for line, text in self.comments.items():
            m = _IGNORE_RE.search(text)
            if m is None:
                continue
            names = m.group(1)
            rules = (
                frozenset(r.strip() for r in names.split(",") if r.strip())
                if names
                else frozenset()
            )
            yield line, Suppression(line=line, rules=rules)

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        """True when ``line`` carries (or is preceded by a standalone
        comment line carrying) an ignore for ``rule_id``."""
        supp = self.suppressions.get(line)
        if supp is not None and supp.covers(rule_id):
            return True
        prev = line - 1
        if prev in self.own_line_comments:
            supp = self.suppressions.get(prev)
            if supp is not None and supp.covers(rule_id):
                return True
        return False

    # ------------------------------------------------------------ structure

    @cached_property
    def parents(self) -> dict[int, ast.AST]:
        """``id(child) -> parent`` for every node in the tree."""
        out: dict[int, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                out[id(child)] = parent
        return out

    def ancestors(self, node: ast.AST):
        """Yield enclosing nodes from the immediate parent to the module."""
        cur = self.parents.get(id(node))
        while cur is not None:
            yield cur
            cur = self.parents.get(id(cur))

    def enclosing_function(self, node: ast.AST):
        """The innermost ``def``/``async def`` containing ``node``."""
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return anc
        return None

    def enclosing_class(self, node: ast.AST):
        for anc in self.ancestors(node):
            if isinstance(anc, ast.ClassDef):
                return anc
        return None

    @cached_property
    def functions(self) -> list:
        return [
            n
            for n in ast.walk(self.tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]

    def _marked_functions(self, kind: str, decorators: frozenset[str]) -> set[int]:
        """Function ids marked by ``kind`` comments or a known decorator.

        A comment marker marks the innermost function whose span contains
        it; marks are inherited by nested functions (a closure defined in a
        hot region runs in that region).
        """
        marked: set[int] = set()
        for fn in self.functions:
            for deco in fn.decorator_list:
                name = deco.func if isinstance(deco, ast.Call) else deco
                dotted = _dotted(name)
                if dotted is not None and dotted.split(".")[-1] in decorators:
                    marked.add(id(fn))
        for line in self.marker_lines[kind]:
            best = None
            for fn in self.functions:
                end = getattr(fn, "end_lineno", fn.lineno)
                if fn.lineno <= line <= end:
                    if best is None or fn.lineno > best.lineno:
                        best = fn  # innermost: largest start line wins
            if best is not None:
                marked.add(id(best))
        # Propagate to nested defs.
        changed = True
        while changed:
            changed = False
            for fn in self.functions:
                if id(fn) in marked:
                    continue
                parent_fn = self.enclosing_function(fn)
                if parent_fn is not None and id(parent_fn) in marked:
                    marked.add(id(fn))
                    changed = True
        return marked

    @cached_property
    def hot_functions(self) -> set[int]:
        """ids of functions marked as K-loop interiors (``hot-region``)."""
        return self._marked_functions("hot-region", HOT_REGION_DECORATORS)

    @cached_property
    def worker_functions(self) -> set[int]:
        """ids of functions marked as running on worker threads."""
        return self._marked_functions("worker-thread", WORKER_THREAD_DECORATORS)

    def in_hot_region(self, node: ast.AST) -> bool:
        fn = self.enclosing_function(node)
        return fn is not None and id(fn) in self.hot_functions

    def in_worker_thread(self, node: ast.AST) -> bool:
        fn = self.enclosing_function(node)
        return fn is not None and id(fn) in self.worker_functions

    # ---------------------------------------------------------- annotations

    @cached_property
    def annotation_nodes(self) -> set[int]:
        """ids of every node inside a type annotation (skipped by rules)."""
        out: set[int] = set()

        def mark(expr) -> None:
            if expr is None:
                return
            for sub in ast.walk(expr):
                out.add(id(sub))

        for node in ast.walk(self.tree):
            if isinstance(node, ast.AnnAssign):
                mark(node.annotation)
            elif isinstance(node, ast.arg):
                mark(node.annotation)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                mark(node.returns)
        return out

    def in_annotation(self, node: ast.AST) -> bool:
        return id(node) in self.annotation_nodes

    # -------------------------------------------------------------- aliases

    @cached_property
    def aliases(self) -> dict[str, str]:
        """Local name -> qualified dotted name, from the module's imports.

        ``import numpy as np`` maps ``np -> numpy``; ``from time import
        perf_counter`` maps ``perf_counter -> time.perf_counter``.  Only
        top-level-resolvable names are recorded — a name that shadows an
        import later in the file may be misattributed, which is acceptable
        for a repo-local linter (and fixable with an inline ignore).
        """
        out: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    out[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    out[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}" if node.module else alias.name
                    )
        return out

    def qualified(self, node: ast.AST) -> str | None:
        """The import-resolved dotted name of a Name/Attribute chain.

        ``np.random.rand`` resolves to ``numpy.random.rand`` when ``np``
        aliases numpy; returns ``None`` for chains not rooted at a plain
        name (e.g. ``self.backend.xp``).
        """
        dotted = _dotted(node)
        if dotted is None:
            return None
        root, _, rest = dotted.partition(".")
        base = self.aliases.get(root, root)
        return f"{base}.{rest}" if rest else base

    # -------------------------------------------------------------- helpers

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a pure Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    parts.append(cur.id)
    return ".".join(reversed(parts))
