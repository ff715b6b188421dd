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

import numpy as np

__all__ = ["DeviceRNG", "BlockedDraws", "split_seed"]

#: cap on elements pregenerated per ``uniform_block`` chunk by
#: :class:`BlockedDraws` (float64 words; 1 << 19 elements = 4 MiB) — bulk
#: generation amortises per-call overhead, but blocks must stay cache-sized:
#: measured on the batched engines, 4 MiB chunks beat 64 MiB ones by ~5-10 %
#: (a huge block is evicted before its tail rows are consumed).
MAX_BLOCK_ELEMENTS = 1 << 19

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

    def uniform_scalar(self, stream: int = 0) -> float:
        """Draw one vector but return only ``stream``'s sample.

        Convenience for scalar consumers (e.g. the sequential code path);
        note that *all* streams still advance, mirroring a warp in which one
        lane's value is used.
        """
        return float(self.uniform()[stream])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(n_streams={self.n_streams}, seed={self.seed}, "
            f"samples_drawn={self.samples_drawn})"
        )


class BlockedDraws:
    """Per-step draw vectors served from bulk pregenerated blocks.

    A construction kernel that consumes one uniform vector per step wraps its
    generator in ``BlockedDraws(rng, rounds)`` and calls :meth:`next` once per
    step.  Draws are pregenerated up to ``block_rounds`` steps at a time with
    a single :meth:`DeviceRNG.uniform_block` call — the paper's bulk-RNG
    amortisation — and handed out as zero-copy row views, so the steady-state
    per-step cost collapses to an index bump.  The consumption order is the
    same per-step lockstep, so tours built from blocked draws are
    bit-identical to tours built from per-step :meth:`DeviceRNG.uniform`
    calls (pinned by the rng test-suite).

    Parameters
    ----------
    rng:
        The generator to pregenerate from.
    rounds:
        Exact number of :meth:`next` calls the consumer will make; drawing
        past it raises (an over-consuming kernel would silently desync the
        stream otherwise).
    work:
        Optional :class:`~repro.backend.WorkBuffers` arena; when given, the
        block buffer itself is hoisted across iterations under ``key``.
    max_block_elements:
        Cap on pregenerated elements per chunk; wide stream counts are served
        in several chunks so memory stays bounded.
    """

    def __init__(
        self,
        rng: DeviceRNG,
        rounds: int,
        *,
        work=None,
        key: str = "rng.block",
        max_block_elements: int = MAX_BLOCK_ELEMENTS,
    ) -> None:
        if rounds < 0:
            raise ValueError(f"rounds must be non-negative, got {rounds}")
        self.rng = rng
        self.remaining = int(rounds)
        per_chunk = max(1, int(max_block_elements) // max(1, rng.n_streams))
        self.block_rounds = min(int(rounds), per_chunk) if rounds else 0
        self._work = work
        self._key = key
        self._block: np.ndarray | None = None
        self._pos = 0
        self._filled = 0

    def next(self) -> np.ndarray:
        """The next ``(n_streams,)`` draw vector (a view into the block)."""
        if self.remaining <= 0:
            raise ValueError("BlockedDraws exhausted: all pregenerated rounds consumed")
        if self._block is None or self._pos >= self._filled:
            take = min(self.block_rounds, self.remaining)
            out = None
            if self._work is not None:
                out = self._work.get(
                    self._key, (self.block_rounds, self.rng.n_streams), np.float64
                )
            self._block = self.rng.uniform_block(take, out=out)
            self._filled = take
            self._pos = 0
        row = self._block[self._pos]
        self._pos += 1
        self.remaining -= 1
        return row
