"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to discriminate the subsystem that failed.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "TSPError",
    "TSPLIBFormatError",
    "UnsupportedEdgeWeightError",
    "InvalidTourError",
    "SimtError",
    "LaunchConfigError",
    "OccupancyError",
    "MemoryModelError",
    "ACOConfigError",
    "BackendError",
    "BackendUnavailableError",
    "ExperimentError",
    "CalibrationError",
    "RunInterrupted",
    "ServeError",
    "ServiceClosedError",
    "ServiceOverloadedError",
    "ServeTimeoutError",
    "InjectedFaultError",
    "WorkerKilledError",
    "CheckpointError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


# --------------------------------------------------------------------------- TSP


class TSPError(ReproError):
    """Base class for TSP-substrate errors."""


class TSPLIBFormatError(TSPError):
    """A TSPLIB file could not be parsed.

    Parameters
    ----------
    message:
        Human-readable description of the problem.
    line_no:
        1-based line number in the source file, when known.
    """

    def __init__(self, message: str, line_no: int | None = None) -> None:
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class UnsupportedEdgeWeightError(TSPLIBFormatError):
    """The instance uses an ``EDGE_WEIGHT_TYPE`` this library does not implement."""


class InvalidTourError(TSPError):
    """A tour fails validation (wrong length, repeated city, out-of-range index)."""


# -------------------------------------------------------------------------- SIMT


class SimtError(ReproError):
    """Base class for GPU-simulator errors."""


class LaunchConfigError(SimtError):
    """A kernel launch configuration violates device limits."""


class OccupancyError(SimtError):
    """A block cannot be scheduled at all on the device (0 blocks/SM)."""


class MemoryModelError(SimtError):
    """Illegal interaction with a simulated memory space."""


# --------------------------------------------------------------------------- ACO


class ACOConfigError(ReproError):
    """Invalid Ant System parameterisation."""


# ----------------------------------------------------------------------- backend


class BackendError(ReproError):
    """Array-backend failure (unknown name, broken registration)."""


class BackendUnavailableError(BackendError):
    """A registered backend cannot run here (import failure, no device).

    Parameters
    ----------
    message:
        Human-readable description.
    reason:
        The underlying probe failure (e.g. the import error string), kept
        separately so the ``gpu-aco backends`` listing can surface it.
    """

    def __init__(self, message: str, reason: str | None = None) -> None:
        self.reason = reason
        super().__init__(message)


# -------------------------------------------------------------------- experiments


class ExperimentError(ReproError):
    """An experiment harness failure (unknown id, bad mode, missing data)."""


class CalibrationError(ExperimentError):
    """Cost-model calibration failed to converge or was given unusable data."""


# ------------------------------------------------------------------- interrupts


class RunInterrupted(KeyboardInterrupt):
    """Ctrl-C landed inside a run loop; best-so-far results were salvaged.

    Deliberately **not** a :class:`ReproError`: it subclasses
    :class:`KeyboardInterrupt` so that code which does not know about it
    keeps the standard Ctrl-C semantics (the interrupt still propagates,
    ``except Exception`` does not swallow it), while the CLI — and any
    caller that opts in — can catch it specifically and report the partial
    result instead of dumping a traceback.

    Parameters
    ----------
    partial:
        The salvaged best-so-far result — a
        :class:`~repro.core.batch.BatchRunResult`,
        :class:`~repro.core.acs.ACSRunResult`,
        :class:`~repro.core.mmas.MMASRunResult` or
        :class:`~repro.experiments.harness.SweepResult`, depending on which
        loop was interrupted.  ``None`` only when nothing completed (loops
        re-raise the bare ``KeyboardInterrupt`` in that case instead).
    """

    def __init__(self, partial=None, message: str = "run interrupted") -> None:
        self.partial = partial
        super().__init__(message)


# ----------------------------------------------------------------------- serving


class ServeError(ReproError):
    """Base class for async solve-service failures."""


class ServiceClosedError(ServeError):
    """A request was submitted to a service that is draining or stopped."""


class ServiceOverloadedError(ServeError):
    """The service's pending-request capacity is exhausted (backpressure)."""


class ServeTimeoutError(ServeError):
    """A request exceeded its wall-clock timeout before completing.

    Enforced lazily at flush/retry boundaries: the service does not run a
    per-request timer, it checks deadlines whenever the request would next
    be (re)scheduled onto a worker.
    """


class InjectedFaultError(ServeError):
    """A deterministic fault-injection plan fired (chaos testing only).

    Raised by :class:`repro.serve.faults.FaultInjector` inside worker
    batches; in production code paths this error never occurs.
    """


class WorkerKilledError(BaseException):
    """A fault plan simulated the death of a worker mid-batch.

    Deliberately **not** an :class:`Exception`: real worker death (OOM
    killer, segfault in a native extension) does not flow through normal
    ``except Exception`` recovery, so the chaos seam models it as a
    ``BaseException`` that only the service's outermost BaseException
    barrier may catch.  ``concurrent.futures`` captures BaseExceptions
    raised on worker threads, so the futures plumbing survives.
    """


# -------------------------------------------------------------------- checkpoint


class CheckpointError(ReproError):
    """An engine checkpoint could not be written, read, or restored.

    Covers unreadable files, magic/version mismatches, and fingerprint
    mismatches (restoring a checkpoint into an engine whose configuration
    differs from the one that wrote it).
    """
