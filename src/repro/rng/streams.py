"""Common interface for vectorised per-thread RNG streams.

A GPU kernel gives every thread its own generator state; the simulator mirrors
that with *stream-parallel* generators: one object holds ``n_streams``
independent states and every call to :meth:`DeviceRNG.uniform` advances all of
them by one step, returning a vector of samples.  This is both faithful to the
CUDA programming model and the numpy-friendly way to generate numbers for
thousands of simulated threads at once (see the vectorisation guidance in the
scientific-python optimisation notes).
"""

from __future__ import annotations

import abc
from itertools import repeat

import numpy as np

__all__ = ["DeviceRNG", "BlockedDraws", "split_seed"]

_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def split_seed(seed: int, n: int) -> np.ndarray:
    """Derive ``n`` well-separated 64-bit sub-seeds from a master seed.

    Uses the SplitMix64 finaliser, the standard tool for seeding families of
    generators from a single integer without correlated low bits.

    Returns
    -------
    numpy.ndarray
        ``uint64`` array of shape ``(n,)``; entries are never zero (zero is a
        degenerate state for xorshift-family generators).
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    z = (np.uint64(seed) + _SPLITMIX_GAMMA * np.arange(1, n + 1, dtype=np.uint64))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    z[z == 0] = np.uint64(1)
    return z


class DeviceRNG(abc.ABC):
    """Abstract stream-parallel uniform generator.

    Subclasses implement :meth:`_next_raw`, producing one ``uint32``/``int32``
    word per stream; the base class converts to floats and tracks how many
    numbers have been drawn (the cost model charges per generated sample, and
    the charge differs between the library generator and the device LCG).

    A generator can also be built *batched* via :meth:`from_seeds`: the state
    vector then holds ``len(seeds)`` independently seeded colonies laid out
    contiguously, so batch row ``b`` of a ``uniform().reshape(B, -1)`` draw is
    bit-identical to the sequence a solo generator seeded with ``seeds[b]``
    produces.  This is the property that lets the batched engine reproduce
    solo runs exactly.
    """

    #: modelled device cost class, read by the SIMT cost model
    cost_kind: str = "lcg"
    #: the smallest value :meth:`uniform` can return (``0.0`` unless a
    #: generator rules out a zero raw word)
    min_uniform: float = 0.0

    def __init__(self, n_streams: int, seed: int, backend=None) -> None:
        from repro.backend import resolve_backend

        if n_streams <= 0:
            raise ValueError(f"n_streams must be positive, got {n_streams}")
        self.n_streams = int(n_streams)
        self.seed = int(seed)
        self.samples_drawn = 0
        #: where the per-stream state vector lives; seeds are always derived
        #: on the host (cheap, once) and uploaded through the backend.
        self.backend = resolve_backend(backend)

    # -- subclass interface -------------------------------------------------

    @abc.abstractmethod
    def _next_raw(self) -> np.ndarray:
        """Advance every stream one step; return ``(n_streams,)`` raw words."""

    @abc.abstractmethod
    def _max_raw(self) -> float:
        """Exclusive upper bound of the raw word range (for normalisation)."""

    @classmethod
    @abc.abstractmethod
    def _derive_states(cls, seed: int, n_streams: int):
        """Per-stream state for one seed — the exact ``__init__`` derivation."""

    @abc.abstractmethod
    def _load_states(self, per_seed_states: list) -> None:
        """Replace the state vector with concatenated per-seed states."""

    # -- batched construction ------------------------------------------------

    @classmethod
    def from_seeds(cls, streams_per_seed: int, seeds, backend=None) -> "DeviceRNG":
        """Batched generator: ``streams_per_seed`` streams per entry of ``seeds``.

        Stream block ``b`` (rows ``[b * streams_per_seed, (b + 1) *
        streams_per_seed)``) carries exactly the state a solo generator
        ``cls(streams_per_seed, seeds[b])`` would hold, so every draw,
        reshaped to ``(len(seeds), streams_per_seed)``, reproduces the solo
        sequences row for row.
        """
        seeds = [int(s) for s in seeds]
        if not seeds:
            raise ValueError("from_seeds needs at least one seed")
        if streams_per_seed <= 0:
            raise ValueError(
                f"streams_per_seed must be positive, got {streams_per_seed}"
            )
        # Construct with a single throwaway stream (deriving the full batch
        # state in __init__ would be immediately discarded), then install
        # the real per-seed state blocks.
        rng = cls(n_streams=1, seed=seeds[0], backend=backend)
        rng._load_states([cls._derive_states(s, streams_per_seed) for s in seeds])
        rng.n_streams = int(streams_per_seed) * len(seeds)
        return rng

    # -- public API ----------------------------------------------------------

    def uniform(self) -> np.ndarray:
        """One uniform ``float64`` in ``[0, 1)`` per stream, shape ``(n_streams,)``."""
        raw = self._next_raw()
        self.samples_drawn += self.n_streams
        # Single-pass cast-and-divide; bit-identical to astype + divide
        # (each element is exactly representable in float64 before dividing).
        return self.backend.xp.true_divide(raw, self._max_raw())

    def uniform_block(self, rounds: int, out: np.ndarray | None = None) -> np.ndarray:
        """Draw ``rounds`` successive vectors; shape ``(rounds, n_streams)``.

        Streams advance in lockstep, so row ``r`` holds the ``r``-th draw of
        every stream — exactly the access pattern of a construction step that
        needs one number per (step, thread) pair.  Bit-identical to ``rounds``
        sequential :meth:`uniform` calls (each raw word is exactly
        representable in float64 before the single normalising divide), but
        amortised: one output allocation and one vectorised divide for the
        whole block instead of one of each per draw.

        ``out`` optionally supplies a preallocated ``(>= rounds, n_streams)``
        float64 buffer (e.g. from a :class:`~repro.backend.WorkBuffers`
        arena); the filled ``out[:rounds]`` view is returned.
        """
        if rounds < 0:
            raise ValueError(f"rounds must be non-negative, got {rounds}")
        xp = self.backend.xp
        if out is None:
            out = xp.empty((rounds, self.n_streams), dtype=np.float64)
        elif out.shape[0] < rounds or out.shape[1:] != (self.n_streams,):
            raise ValueError(
                f"out buffer {out.shape} cannot hold ({rounds}, {self.n_streams})"
            )
        block = out[:rounds]
        max_raw = self._max_raw()
        for r in range(rounds):
            # Fused cast-and-divide into the row: one pass over the block
            # instead of a cast pass plus a divide pass (bit-identical —
            # every raw word is exactly representable in float64).
            xp.true_divide(self._next_raw(), max_raw, out=block[r])
        self.samples_drawn += rounds * self.n_streams
        return block

    # -- checkpointing --------------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Host copies of the generator's mutable per-stream state.

        The checkpoint seam: together with ``samples_drawn`` this is
        everything needed to resume the stream bit-identically.  Keys are
        generator-specific (``{"state": ...}`` for the LCG, the six state
        words for XORWOW); :meth:`load_state_arrays` accepts exactly what
        this returns.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support state capture"
        )

    def load_state_arrays(self, arrays: dict) -> None:
        """Replace the per-stream state with a :meth:`state_arrays` capture.

        The stream count must match; draws after the load continue the
        captured sequence exactly (pinned by the checkpoint parity suite).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support state restore"
        )

    def _check_state_shape(self, arr: np.ndarray, key: str) -> None:
        if arr.shape != (self.n_streams,):
            raise ValueError(
                f"state array {key!r} has shape {arr.shape}; this generator "
                f"holds {self.n_streams} streams"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(n_streams={self.n_streams}, seed={self.seed}, "
            f"samples_drawn={self.samples_drawn})"
        )


class BlockedDraws:
    """Per-step draw vectors for a construction kernel, drawn just in time.

    A kernel that consumes one uniform vector per step wraps its generator
    in ``BlockedDraws(rng, rounds)`` and advances it once per step.  Each
    step fills every stream one round into one reused ``(n_streams,)`` row
    (:meth:`DeviceRNG.uniform_block` with ``rounds=1``), the way the
    paper's threads draw ``U_j`` in a register just before using it.  The
    reason is cache size, not call count: a block pregenerated for several
    steps outgrows the cache at the widths the data-parallel kernels draw
    (one stream per ant and city), so its rows would go out to memory and
    come back steps later, while the one row stays cached between its fill
    and its use.  The consumption order is the per-step lockstep, so tours
    built from these draws are bit-identical to tours built from per-step
    :meth:`DeviceRNG.uniform` calls (pinned by the rng test-suite).

    The per-step API costs one call per step and no Python frame of its
    own, so a step loop pays for the kernel's work and nothing else:

    * :attr:`row` — the ``(n_streams,)`` row every fill writes in place; a
      kernel takes its views of it (a reshape, a slice) once per build;
    * :attr:`steps` — an iterator of exactly ``rounds`` fills, each one
      ``rng.uniform_block(1, out)`` (the generator's attribute, looked up
      once here, so an instance-level wrapper such as perfbench's
      ``--trace 1`` sees every fill).  Drive a step loop from it, e.g.
      ``for tour_row, _ in zip(tour_rows, draws.steps)``; it stops after
      ``rounds`` fills, and :meth:`next` raises past them (an
      over-consuming kernel would silently desync the stream otherwise);
    * :meth:`sign_flip` — the generator's bound sign flip
      (:meth:`repro.rng.lcg.ParkMillerLCG.sign_flip`), which flags streams
      in the sign of their later draws (the data-parallel kernels'
      register tabu).  Use the object as a context manager when flipping:
      leaving it clears the flags from the generator, on success and on
      exception alike, so its observable state is never touched.

    Parameters
    ----------
    rng:
        The generator to draw from.
    rounds:
        Exact number of fills the consumer will make.
    work:
        Optional :class:`~repro.backend.WorkBuffers` arena; when given, the
        row buffer is hoisted across iterations under ``key``.
    """

    def __init__(
        self, rng: DeviceRNG, rounds: int, *, work=None, key: str = "rng.row"
    ) -> None:
        if rounds < 0:
            raise ValueError(f"rounds must be non-negative, got {rounds}")
        self.rng = rng
        shape = (1, rng.n_streams)
        if work is not None:
            block = work.get(key, shape, np.float64)
        else:
            block = rng.backend.xp.empty(shape, dtype=np.float64)
        #: the ``(n_streams,)`` draw row, refilled in place by every step
        self.row = block[0]
        #: an iterator of exactly ``rounds`` fills of :attr:`row`
        self.steps = map(rng.uniform_block, repeat(1, int(rounds)), repeat(block))
        self._signed = False

    def next(self) -> np.ndarray:
        """Fill and return :attr:`row` (valid until the next fill)."""
        if next(self.steps, None) is None:
            raise ValueError("BlockedDraws exhausted: all rounds consumed")
        return self.row

    def sign_flip(self):
        """The generator's sign flip, bound for this block: ``flip(streams)``
        negates every later draw of ``streams`` (distinct indices; see
        :meth:`repro.rng.lcg.ParkMillerLCG.sign_flip`).  Leaving the
        ``with`` block clears the flags."""
        flip = self.rng.sign_flip()
        self._signed = True
        return flip

    def __enter__(self) -> "BlockedDraws":
        return self

    def __exit__(self, *exc) -> None:
        if self._signed:
            self.rng.clear_signs()
            self._signed = False
