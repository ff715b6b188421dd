"""The Choice kernel: precompute ``choice_info = tau^alpha * eta^beta``.

Table II's version 2 introduces this kernel: instead of every ant
recomputing ``[tau]^alpha [eta]^beta`` for every candidate at every step
(version 1's "redundant calculations"), a dedicated n²-thread kernel
evaluates the matrix once per iteration and the construction kernels read it
back.  This mirrors ACOTSP's ``compute_total_information``.
"""

from __future__ import annotations

import numpy as np

from repro.core.report import StageReport, cached_stage_reports
from repro.simt.counters import KernelStats
from repro.simt.device import DeviceSpec
from repro.simt.kernel import Kernel, LaunchConfig, grid_for
from repro.simt.memory import AccessPattern, GlobalMemory

__all__ = ["ChoiceKernel", "compute_choice_batch"]


def compute_choice_batch(tau, eta, alpha, beta, *, xp=np, out=None, eta_pow=None):
    """``tau^alpha * eta^beta`` on ``(B, n, n)`` stacks with per-row
    ``(B,)`` exponent vectors and identity-exponent fast paths.

    ``pow(x, 1.0)`` is required (and verified by the test-suite) to return
    ``x`` bit-for-bit, so skipping the ``powf`` pass for the paper's default
    ``alpha = 1`` never changes an output.  The fast path applies only when
    *every* row uses the identity exponent; mixed batches take the full
    ``power`` pass, which is still bit-identical row-for-row.  ``out`` (a
    ``(B, n, n)`` float64 buffer) receives the product when given and
    doubles as the scratch for whichever power pass runs, so the common
    ``alpha = 1`` case allocates nothing.  ``eta_pow`` optionally supplies
    a precomputed ``eta ** beta`` — both factors are engine-constant, so
    callers with an arena hoist the (expensive) power pass out of the
    iteration entirely; the product is bit-identical.
    """
    # lint: hot-region
    # Engine-constant branch select: alpha/beta never change during a run,
    # so this scalar sync picks one code path, not per-iteration data.
    a_one = bool((alpha == 1.0).all())  # lint: ignore[host-sync]
    b_one = bool((beta == 1.0).all())  # lint: ignore[host-sync]
    tau_p = tau if a_one else xp.power(tau, alpha[:, None, None], out=out)
    if b_one:
        eta_p = eta
    elif eta_pow is not None:
        eta_p = eta_pow
    else:
        eta_scratch = out if a_one else None
        eta_p = xp.power(eta, beta[:, None, None], out=eta_scratch)
    if out is None:
        return tau_p * eta_p
    return xp.multiply(tau_p, eta_p, out=out)


class ChoiceKernel(Kernel):
    """n²-thread kernel filling the choice-info matrix.

    Each thread handles one matrix cell: coalesced loads of ``tau[i][j]``
    and ``d[i][j]``, two ``powf`` and one divide on the SFU path, one
    multiply, one coalesced store.
    """

    name = "choice_info"

    def __init__(self, block: int = 256) -> None:
        self.block = int(block)

    def launch_config(self, device: DeviceSpec, *, n: int) -> LaunchConfig:
        block = min(self.block, device.max_threads_per_block)
        return LaunchConfig(grid=grid_for(n * n, block), block=block)

    # ---------------------------------------------------------------- run

    def run_batch(self, bstate, collect: bool = True) -> list[StageReport]:
        """Refresh ``bstate.choice_info`` (``(B, n, n)``) for all colonies.

        One elementwise pass with per-row exponents, so row ``b`` depends
        only on colony ``b``.  The matrix lives in the state's arena:
        choice_info is rebound every iteration and nothing retains the
        previous one, so recycling the allocation removes a B·n² alloc per
        iteration.  ``collect=False`` skips report materialization
        (iterations between ``report_every`` boundaries) and returns an
        empty list.
        """
        xp = bstate.backend.xp
        wb = bstate.work
        eta_pow = None
        if not bool((bstate.beta == 1.0).all()):
            eta_pow = wb.cached(
                f"choice.eta_pow.{bstate.B}x{bstate.n}",
                lambda: xp.power(bstate.eta, bstate.beta[:, None, None]),
            )
        choice = compute_choice_batch(
            bstate.pheromone,
            bstate.eta,
            bstate.alpha,
            bstate.beta,
            xp=xp,
            out=wb.get("choice.out", (bstate.B, bstate.n, bstate.n), np.float64),
            eta_pow=eta_pow,
        )
        diag = wb.cached(f"choice.diag.{bstate.n}", lambda: xp.arange(bstate.n))
        choice[:, diag, diag] = 0.0
        bstate.choice_info = choice

        if not collect:
            return []

        return cached_stage_reports(
            bstate, self, [None] * bstate.B, "choice", self.name,
            lambda _: self.predict_stats(bstate.n, bstate.device),
        )

    def predict_stats(
        self, n: int, device: DeviceSpec
    ) -> tuple[KernelStats, LaunchConfig]:
        """Closed-form ledger of one choice-kernel launch."""
        stats = KernelStats()
        launch = self.launch_config(device, n=n)
        self.record_launch(stats, launch)
        cells = float(n) * n
        gmem = GlobalMemory(device, stats)
        gmem.load(2.0 * cells, 4, AccessPattern.COALESCED)  # tau, dist
        gmem.store(cells, 4, AccessPattern.COALESCED)  # choice_info
        stats.special_ops += 3.0 * cells  # 2 powf + 1 divide (eta from d)
        stats.flops += cells  # product
        stats.int_ops += 2.0 * cells  # index arithmetic
        return stats, launch
