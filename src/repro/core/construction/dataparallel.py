"""Data-parallel tour construction: Table II versions 7-8 (paper Fig. 1).

The paper's main construction contribution: instead of a thread per ant, a
**thread block per ant** with a **thread per city**.  Each step:

1. every thread loads the choice value of its city (``choice_info[cur][j]``
   — a *coalesced* row read, unlike the task-based kernels' scattered
   gathers),
2. generates a random number ``U_j in [0, 1)``,
3. multiplies it by a 0/1 visited flag kept in a register (no branch — the
   warp-divergence killer of the task-based kernels),
4. writes the product to shared memory, and a tree reduction selects the
   winning city.

The batched kernel keeps step 3's register flag in the sign of the
thread's own generator state instead of in a separate array: a visited
city's stream is negated, so its ``U_j`` comes out negative and its product
can never win (:meth:`DataParallelConstruction.build_batch`).  Each step's
draws are generated just in time, one row per step, as the threads do.

When ``n`` exceeds the block size, cities are processed in **tiles**: each
tile elects a partial winner, and the final city is chosen among the tile
winners.  With the default ``tile_rule="product"`` the winner is the global
argmax of the products (exactly what a single huge block would compute);
``tile_rule="heuristic"`` picks among tile winners by raw choice value —
the paper's more literal reading — and is exposed as an ablation.  In the
tiled regime the per-thread visited flags are **bit-packed** into a register
word, one bit per tile (the paper's register tabu).

This selection — dubbed *I-Roulette* in the authors' follow-up work — is not
the exact proportional rule; it preserves the monotone preference for high
``choice_info`` values while drawing ``n`` randoms per step.  Solution
quality remains statistically indistinguishable from the sequential code on
the paper's benchmarks (tests/integration cover this).

Version 8 reads ``choice_info`` through the texture path.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.construction.base import (
    BatchConstructionResult,
    TourConstruction,
    best_unvisited,
    min_off_diagonal,
)
from repro.errors import ACOConfigError
from repro.rng.streams import BlockedDraws, DeviceRNG
from repro.simt.counters import KernelStats
from repro.simt.device import DeviceSpec
from repro.simt.kernel import LaunchConfig
from repro.simt.memory import AccessPattern, GlobalMemory

__all__ = [
    "DataParallelConstruction",
    "DataParallelTextureConstruction",
    "reduction_stage_count",
]

_TILE_RULES = ("product", "heuristic")


def reduction_stage_count(width: int) -> int:
    """Number of tree stages for a block of ``width`` threads (ceil log2)."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    return max(1, math.ceil(math.log2(width))) if width > 1 else 0


def _round_up(value: int, multiple: int) -> int:
    return -(-value // multiple) * multiple


class DataParallelConstruction(TourConstruction):
    """Version 7 — one block per ant, one thread per city, tiled.

    Parameters
    ----------
    tile:
        Preferred tile width (threads per block); clipped to the device's
        block limit and rounded to warp multiples.
    tile_rule:
        ``"product"`` (default; global argmax of ``choice × U × unvisited``)
        or ``"heuristic"`` (tile winners compared by raw choice value).
    """

    version = 7
    key = "data_parallel"
    label = "Increasing Data Parallelism"
    needs_choice_info = True
    rng_kind = "lcg"
    choice_via_texture = False

    def __init__(self, tile: int = 256, tile_rule: str = "product") -> None:
        if tile < 32:
            raise ACOConfigError(f"tile must be >= 32, got {tile}")
        if tile_rule not in _TILE_RULES:
            raise ACOConfigError(f"tile_rule must be one of {_TILE_RULES}, got {tile_rule!r}")
        self.tile = int(tile)
        self.tile_rule = tile_rule

    # ------------------------------------------------------------- geometry

    def rng_streams(self, n: int, m: int) -> int:
        """One stream per (ant, city) pair — a thread-private generator."""
        return m * n

    def tile_width(self, device: DeviceSpec, n: int) -> int:
        width = min(self.tile, device.max_threads_per_block, _round_up(n, 32))
        return max(32, width)

    def launch_config(self, device: DeviceSpec, *, n: int, m: int) -> LaunchConfig:
        theta = self.tile_width(device, n)
        # Shared memory: the reduction scratch (value + index per thread).
        return LaunchConfig(
            grid=m, block=theta, smem_per_block=8 * theta, regs_per_thread=20
        )

    def _tile_spans(self, n: int, theta: int) -> list[tuple[int, int]]:
        return [(t, min(t + theta, n)) for t in range(0, n, theta)]

    # ----------------------------------------------------------------- build

    def build_batch(
        self, bstate, rng: DeviceRNG, collect: bool = True
    ) -> BatchConstructionResult:
        """Batched I-Roulette: ``B`` colonies advance through every step in
        one set of vectorized array operations.

        Each row's RNG draws, tile reductions and tie-breaks depend only on
        that colony: row ``b`` is bit-identical to a one-row build seeded
        like it.  The ledger is deterministic for this kernel, so per-colony
        reports come from the closed form (:meth:`predict_stats`).

        Under the default product rule the best tile winner is the row's
        argmax (lowest index on ties) at any tile count, so each step takes
        one argmax over the row; only the ``"heuristic"`` rule keeps
        per-tile winners.  The tours equal those of the kernel that elects
        per-tile winners by block reduction (pinned by
        ``tests/property/test_solo_golden.py``).

        Each step does the kernel's own work and nothing else: seven calls,
        bound once per build, of which only the fill and the sign flip run
        Python code of their own:

        1. the draw: one ``rng.uniform_block(1, out=row)`` fill
           (:attr:`~repro.rng.streams.BlockedDraws.steps`; the generator's
           attribute, so an instance-level tracer sees every fill);
        2. the gather: one ``row_off + cur`` add and one method-form
           ``take`` of the ants' ``choice_info`` rows;
        3. the products: one in-place multiply by the draw row, viewed as
           ``(M, n)`` once per build;
        4. the reduction: one method-form argmax over the products' int64
           bits, written straight into the step's tour row;
        5. the commit: one ``ant_base + city`` add and one sign flip
           (:meth:`~repro.rng.streams.BlockedDraws.sign_flip`).

        The zero-product check (below) and the heuristic tile rule ride in
        the same loop behind a branch.  Tours are built step-major: row
        ``s`` of a pooled ``(n + 1, M)`` int64 buffer holds every ant's city
        at step ``s``, so each argmax writes one contiguous row, which is
        the next step's ``cur``.  The returned tours are a fresh
        ant-major ``(B, m, n + 1)`` int32 copy that shares no memory with
        the arena.

        The visited flags are the signs of the threads' rng streams
        (:meth:`~repro.rng.streams.BlockedDraws.sign_flip`): the start city's
        and each chosen city's stream is negated, and every later draw of a
        negated stream is the exact negation of the draw it replaces, so
        the sequence of magnitudes is untouched and clearing the signs at
        the end restores the generator's state.  Every argmax over the
        step's products ``choice * u`` (the row, or each tile) runs on
        their int64 bit patterns.  This needs every ``choice_info`` entry
        finite and ``>= 0`` (the choice kernel guarantees it: ``eta = 1 /
        (d + 0.1)`` and the pheromone are finite and non-negative).  An
        unvisited product, with ``u`` in ``[0, 1)``, is then a finite
        double ``>= +0.0``, and for such values the IEEE-754 bit patterns
        read as int64 order exactly like the values (equal values have
        equal bits).  A visited product is ``<= -0.0``, whose bit pattern
        is a negative int64, so it loses to every unvisited one.  The
        winner and its lowest-index tie-break therefore match a float
        argmax over ``choice * u * unvisited``, which costs more because it
        must also look for NaNs.

        When every unvisited product is ``0`` (an underflowed trail or
        heuristic), the winner's product is ``+0.0`` (or, under the
        heuristic rule, a visited city's); one ``(M,)`` gather at the
        winners detects it, and those ants take the best-unvisited fallback
        of versions 1-6 (:func:`~repro.core.construction.base.best_unvisited`,
        reading the visited mask from the draws' signs), counted in
        ``fallback_steps``.  The closed-form ledger does not charge it.
        The gather runs only in iterations where a zero product is
        possible: unvisited products are at least ``fl(c * u)``, with
        ``c`` the smallest off-diagonal ``choice_info`` entry and ``u`` the
        generator's ``min_uniform``, so when that is positive the check is
        skipped.
        """
        B, n, m, device = bstate.B, bstate.n, bstate.m, bstate.device
        xp = bstate.backend.xp
        wb = bstate.work
        self._validate_batch_rng(rng, B, n, m)
        choice_info = self._choice_info(bstate)
        theta = self.tile_width(device, n)
        spans = self._tile_spans(n, theta)

        def _buf(key: str, shape, dtype):
            return wb.get("dp." + key, shape, dtype)

        def _const(key: str, builder):
            # Geometry-stamped: see construct_exact_batch's _const.
            return wb.cached(f"dp.{key}.{B}x{m}x{n}", builder)

        # Flattened mega-colony layout: B * m ants, ant b*m+a reading choice
        # rows b*n + city — every per-step op keeps a 2-D (ants, cities) shape.
        M = B * m
        choice_rows = xp.ascontiguousarray(choice_info).reshape(B * n, n)
        row_off = _const(
            "row_off", lambda: xp.repeat(xp.arange(B, dtype=np.int64) * n, m)
        )  # (M,)
        # (M,) flat row bases: ant_base + city is both the ant's cell in the
        # (M, n) product matrix and its thread's rng stream.
        ant_base = _const("ant_base", lambda: xp.arange(M, dtype=np.int64) * n)
        rows_buf = _buf("rows", (M, n), np.float64)
        rows_idx = _buf("rows_idx", (M,), np.int64)
        win_idx = _buf("win_idx", (M,), np.int64)
        win_bits = _buf("win_bits", (M,), np.int64)
        # Step-major tours: row s holds every ant's city at step s, so each
        # step's argmax writes one contiguous row in place.  The rows are
        # pooled and int64, the argmax's own index type: int32 rows would
        # add a cast to the argmax and to both index adds of every step.
        tour_rows = _buf("tour_rows", (n + 1, M), np.int64)
        # The argmax reads the products' int64 bit patterns (precondition in
        # the docstring).
        w_bits = rows_buf.view(np.int64)
        w_bits_flat = w_bits.reshape(-1)
        fallbacks = xp.zeros(B)
        # One min per iteration stands in for the per-step winner check
        # whenever no product can be 0 (see the docstring).
        zero_risk = n > 1 and not (
            min_off_diagonal(choice_rows.reshape(B, n, n), xp)
            * rng.min_uniform
            > 0.0
        )
        per_tile = self.tile_rule == "heuristic" and len(spans) > 1
        if per_tile:
            choice_flat = choice_rows.reshape(-1)
            ant_idx = _const("ant_idx", lambda: xp.arange(M))
            tile_city = _buf("tile_city", (M, len(spans)), np.int64)
            tile_val = _buf("tile_val", (M, len(spans)), np.float64)

        # The step's operations, bound once per build and called in method
        # or ufunc form with positional arguments.  Gather indices are in
        # range by construction, so numpy's bounds check is pure overhead
        # and mode="clip" skips it (CuPy's take has no mode and wraps).
        clip = ("clip",) if xp is np else ()
        take_rows = choice_rows.take
        take_bits = w_bits_flat.take
        argmax_bits = w_bits.argmax
        add = xp.add
        multiply = xp.multiply

        # The register tabu rides in the sign of each thread's stream: a
        # visited city's stream is negated, so its draws (and products)
        # are <= -0.0 and lose every argmax.  Leaving the block clears the
        # signs, on success and on exception alike.
        with BlockedDraws(rng, n, work=wb, key="dp.rng") as draws:
            u = draws.row.reshape(M, n)
            flip = draws.sign_flip()
            # First step: each colony's leading m streams place the ants.
            draws.next()
            start = draws.row.reshape(B, -1)[:, :m] * n
            tour_rows[0] = xp.minimum(start.astype(np.int64), n - 1).reshape(M)
            add(ant_base, tour_rows[0], win_idx)
            flip(win_idx)
            cur = tour_rows[0]
            for nxt, _ in zip(tour_rows[1:n], draws.steps):
                add(row_off, cur, rows_idx)
                take_rows(rows_idx, 0, rows_buf, *clip)
                multiply(rows_buf, u, rows_buf)
                if not per_tile:
                    argmax_bits(1, nxt)
                else:
                    # Per-tile winners: each tile's argmax and its value
                    # (ties resolve to the lowest lane, as a tree reduction
                    # that keeps the left operand on equality does).
                    for t, (lo, hi) in enumerate(spans):
                        idx = w_bits[:, lo:hi].argmax(1)
                        add(idx, lo, win_idx)
                        tile_city[:, t] = win_idx
                        add(win_idx, ant_base, win_idx)
                        take_bits(win_idx, None, win_bits, *clip)
                        tile_val[:, t] = win_bits.view(np.float64)

                    winner_choice = choice_flat[rows_idx[:, None] * n + tile_city]
                    winner_choice = xp.where(tile_val > 0.0, winner_choice, -np.inf)
                    pick = winner_choice.argmax(1)
                    nxt[:] = tile_city[ant_idx, pick]
                add(ant_base, nxt, win_idx)
                # A winning product <= +0.0 (bits <= 0) means every unvisited
                # product is 0: the argmax fell on the lowest such city, or
                # (heuristic rule, every tile at 0) on a visited one.  Those
                # ants take the best unvisited city instead.
                if zero_risk:
                    take_bits(win_idx, None, win_bits, *clip)
                    if not (win_bits > 0).all():
                        dead = xp.flatnonzero(win_bits <= 0)
                        nxt[dead] = best_unvisited(
                            choice_rows[rows_idx[dead]], u[dead] < 0.0, xp
                        )
                        fallbacks += xp.bincount(dead // m, minlength=B)
                        add(ant_base, nxt, win_idx)
                flip(win_idx)
                cur = nxt

        tour_rows[n] = tour_rows[0]
        # A fresh ant-major int32 copy escapes; the step-major rows stay
        # pooled.
        tours = tour_rows.T.astype(np.int32, order="C").reshape(B, m, n + 1)
        return BatchConstructionResult(
            tours=tours,
            reports=self._batch_reports(bstate, fallbacks) if collect else [],
            fallback_steps=fallbacks,
        )

    # --------------------------------------------------------------- ledger

    def predict_stats(
        self,
        n: int,
        m: int,
        nn: int,
        device: DeviceSpec,
        *,
        fallback_steps: float = 0.0,
    ) -> tuple[KernelStats, LaunchConfig]:
        """Closed-form ledger of one build, per colony.

        Derived independently from the kernel geometry (tiles, reduction
        depths); ``tests/property/test_solo_golden.py`` holds it equal to
        the ledgers a per-step simulation of the kernel measured.
        """
        stats = KernelStats()
        launch = self.launch_config(device, n=n, m=m)
        self.record_launch(stats, launch)
        gmem = GlobalMemory(device, stats)

        theta = self.tile_width(device, n)
        spans = self._tile_spans(n, theta)
        steps = float(n - 1)
        mn = float(m) * n

        # Choice loads.
        if self.choice_via_texture:
            stats.tex_bytes += 4.0 * steps * mn
        else:
            gmem.load(steps * mn, 4, AccessPattern.COALESCED)

        # RNG: initial placement + one per thread per step.
        stats.rng_lcg += m + steps * mn

        # Per-thread work and the product writes.
        stats.flops += steps * 2.0 * mn
        stats.int_ops += steps * 2.0 * mn
        stats.smem_accesses += steps * mn

        # Reductions: a ceil(log2 width)-stage tree per tile; each stage
        # charges one shared read+write pair and one compare per
        # participating lane, plus its barrier.
        red_flops = red_smem = red_sync = red_steps = serial = 0.0
        for lo, hi in spans:
            width = hi - lo
            stages = reduction_stage_count(width)
            participating = 0
            w = width
            for _ in range(stages):
                w = (w + 1) // 2
                participating += w
            red_steps += stages
            red_smem += width + 2 * participating
            red_flops += participating
            red_sync += stages
            serial += stages + 1
        stats.reduction_steps += steps * m * (red_steps / 1.0)
        stats.smem_accesses += steps * m * red_smem
        stats.flops += steps * m * red_flops
        stats.syncthreads += steps * m * red_sync
        stats.serial_barriers += steps * serial

        # Final pick among tile winners.
        final_int = float(len(spans)) * (2.0 if self.tile_rule == "heuristic" and len(spans) > 1 else 1.0)
        stats.int_ops += steps * m * final_int

        # Tour writes (thread 0 of each block).
        gmem.store(steps * m, 4, AccessPattern.RANDOM)
        return stats, launch


class DataParallelTextureConstruction(DataParallelConstruction):
    """Version 8 — data parallelism with ``choice_info`` served by texture."""

    version = 8
    key = "data_parallel_texture"
    label = "Data Parallelism + Texture Memory"
    choice_via_texture = True
