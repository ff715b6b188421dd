"""Scope and allowlist configuration for the invariant rules.

Every deliberate exception to a rule lives HERE, with a reason string,
rather than as an anonymous inline suppression — the config is the
documentation of why each exception is sound.  Inline ``# lint:
ignore[...]`` comments are reserved for one-off local idioms where the
surrounding code already explains itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def _in_scope(module: str, scopes: frozenset[str]) -> bool:
    """True when ``module`` (a :func:`repro.lint.context.module_key`)
    matches one of ``scopes`` — exact file or directory prefix."""
    for scope in scopes:
        if scope.endswith("/"):
            if module.startswith(scope):
                return True
        elif module == scope:
            return True
    return False


@dataclass(frozen=True)
class LintConfig:
    """Rule scoping and documented allowlists."""

    # ------------------------------------------------------ backend-purity
    #: Hot-path modules where array math must flow through the ``xp`` seam
    #: (the numpy path is the parity reference, CuPy the target — raw
    #: ``np.`` calls silently pin work to the host).
    hot_path_modules: frozenset[str] = frozenset(
        {
            "core/batch.py",
            "core/variant.py",
            "core/choice.py",
            "core/construction/",
            "core/pheromone/",
            "tsp/local_search.py",
        }
    )
    #: numpy attributes that are backend-neutral in any context: dtypes,
    #: scalar constants and dtype-introspection helpers.  These carry no
    #: array data, so using them off-seam costs nothing on device.
    np_neutral_attrs: frozenset[str] = frozenset(
        {
            # dtypes
            "float32",
            "float64",
            "int8",
            "int16",
            "int32",
            "int64",
            "uint8",
            "uint16",
            "uint32",
            "uint64",
            "bool_",
            "intp",
            "dtype",
            # scalar constants
            "inf",
            "nan",
            "pi",
            "e",
            "newaxis",
            # dtype/limits introspection (returns python scalars/objects)
            "finfo",
            "iinfo",
            "ndarray",
            "generic",
        }
    )
    #: Calls whose *arguments* are expected to be host arrays:
    #: ``bk.from_host(np.stack(rows))`` stages on the host by design.
    host_staging_callees: frozenset[str] = frozenset({"from_host"})

    # --------------------------------------------------------- determinism
    #: Where engine randomness/time is policed: everything the parity
    #: suites pin bit-exact.
    determinism_scopes: frozenset[str] = frozenset({"core/", "rng/", "tsp/"})
    #: module -> reason; ``time.perf_counter`` is allowed in these modules
    #: because the readings feed observability fields only (phase
    #: accounting, ``wall_seconds``), never the search trajectory.
    perf_counter_allowlist: dict[str, str] = field(
        default_factory=lambda: {
            "core/batch.py": (
                "engine phase accounting (construct/fold/update spans) — "
                "observability only, never feeds the search trajectory"
            ),
            "tsp/local_search.py": (
                "two-opt wall_seconds reporting — observability only"
            ),
        }
    )
    #: Modules exempt from the time-source check entirely (the one place
    #: wall clocks are supposed to live, plus observability).
    time_source_exempt_prefixes: frozenset[str] = frozenset(
        {"util/timer.py", "obs/"}
    )

    # ----------------------------------------------------------- host-sync
    #: method names that force a device→host transfer / stream sync when
    #: called on an array inside a K-loop interior.
    host_sync_methods: frozenset[str] = frozenset({"to_host", "item", "get", "tolist"})
    #: builtins that implicitly sync when applied to a device array.
    host_sync_builtins: frozenset[str] = frozenset({"float", "int", "bool"})

    # ------------------------------------------------------ lock-discipline
    #: guard name meaning "event-loop-confined, not lock-protected":
    #: mutations are flagged only from ``# lint: worker-thread`` functions.
    loop_guard_name: str = "loop"

    def is_hot_path(self, module: str) -> bool:
        return _in_scope(module, self.hot_path_modules)

    def in_determinism_scope(self, module: str) -> bool:
        return _in_scope(module, self.determinism_scopes)

    def time_source_exempt(self, module: str) -> bool:
        return _in_scope(module, self.time_source_exempt_prefixes)


DEFAULT_CONFIG = LintConfig()
