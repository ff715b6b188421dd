"""backend-purity: hot paths must route array math through the ``xp`` seam.

The numpy path is the parity reference and CuPy the target (the whole
point of the paper's GPU strategy mapping) — a raw ``np.`` call inside a
seam function silently pins that op to the host on the CuPy backend.

Scope: the hot-path modules in :class:`~repro.lint.config.LintConfig`.
Within them, a *seam function* is one that receives the backend (a
parameter named ``xp``/``bk``/``backend``) or references ``xp`` — i.e. a
function that was written to be backend-generic.  Direct ``numpy`` calls
there are flagged, except:

* backend-neutral attributes (dtypes, ``inf``, ``finfo`` …) — carry no
  array data;
* arguments of host-staging calls (``bk.from_host(np.stack(rows))``
  builds on the host *by design*);
* ``numpy.random.*`` — that is the determinism rule's jurisdiction.

Host-side setup code (``create()``, pure-host helpers) has no ``xp``
in sight and is naturally out of scope.
"""

from __future__ import annotations

import ast

from ..config import LintConfig
from ..context import FileContext, _dotted
from ..finding import Severity
from ..registry import Rule, register

SEAM_PARAMS = frozenset({"xp", "bk", "backend"})


@register
class BackendPurityRule(Rule):
    id = "backend-purity"
    severity = Severity.ERROR
    description = (
        "hot-path seam functions must route array ops through xp, not raw numpy"
    )

    def check(self, ctx: FileContext, config: LintConfig):
        if not config.is_hot_path(ctx.module):
            return
        seam = self._seam_functions(ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = ctx.qualified(node.func)
            if qual is None or not qual.startswith("numpy."):
                continue
            if qual.startswith("numpy.random."):
                continue  # determinism rule's jurisdiction
            if ctx.in_annotation(node):
                continue
            fn = ctx.enclosing_function(node)
            if fn is None or id(fn) not in seam:
                continue
            first_attr = qual.split(".")[1]
            if first_attr in config.np_neutral_attrs:
                continue
            if self._in_host_staging(ctx, node, config):
                continue
            dotted = _dotted(node.func) or qual
            yield self.finding(
                ctx,
                node,
                f"direct numpy call `{dotted}` inside seam function "
                f"`{fn.name}` — route through the `xp` backend seam",
            )

    @staticmethod
    def _seam_functions(ctx: FileContext) -> set[int]:
        """ids of backend-generic functions; seam-ness is inherited by
        closures nested inside a seam function."""
        seam: set[int] = set()
        for fn in ctx.functions:
            a = fn.args
            names = {arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs)}
            if names & SEAM_PARAMS:
                seam.add(id(fn))
                continue
            for sub in ast.walk(fn):
                if isinstance(sub, ast.Name) and sub.id in SEAM_PARAMS:
                    seam.add(id(fn))
                    break
        changed = True
        while changed:
            changed = False
            for fn in ctx.functions:
                if id(fn) in seam:
                    continue
                parent = ctx.enclosing_function(fn)
                if parent is not None and id(parent) in seam:
                    seam.add(id(fn))
                    changed = True
        return seam

    @staticmethod
    def _in_host_staging(ctx: FileContext, node: ast.AST, config: LintConfig) -> bool:
        for anc in ctx.ancestors(node):
            if (
                isinstance(anc, ast.Call)
                and isinstance(anc.func, ast.Attribute)
                and anc.func.attr in config.host_staging_callees
            ):
                return True
        return False
