"""Random-number generation substrate.

The paper compares two RNG strategies for the tour-construction kernel:

* the NVIDIA **CURAND** library (whose default engine is XORWOW), used by the
  baseline kernels, and
* a small **device function** — the same linear-congruential generator the
  sequential ACOTSP code uses — which gave a further 10-20 % speed-up
  (Table II, version 3) at the cost of weaker randomness guarantees.

Both are implemented here for real, deterministically seeded, and vectorised
across independent per-thread streams so the simulated kernels can consume
thousands of streams in lockstep exactly as the GPU would.
"""

from __future__ import annotations

from repro.rng.lcg import LCG_IA, LCG_IM, ParkMillerLCG
from repro.rng.streams import BlockedDraws, DeviceRNG, split_seed
from repro.rng.xorwow import XorwowRNG

__all__ = [
    "DeviceRNG",
    "BlockedDraws",
    "ParkMillerLCG",
    "XorwowRNG",
    "split_seed",
    "LCG_IA",
    "LCG_IM",
    "make_rng",
    "make_batched_rng",
]

_GENERATORS = {
    "lcg": ParkMillerLCG,
    "xorwow": XorwowRNG,
    "curand": XorwowRNG,  # alias: CURAND's default engine is XORWOW
}


def make_rng(kind: str, n_streams: int, seed: int, backend=None) -> DeviceRNG:
    """Instantiate a generator by name.

    Parameters
    ----------
    kind:
        ``"lcg"`` (device-function generator), ``"xorwow"`` or its alias
        ``"curand"``.
    n_streams:
        Number of independent per-thread streams.
    seed:
        Master seed; per-stream seeds are derived with :func:`split_seed`.
    backend:
        Array backend (name, instance or ``None`` for the resolved default)
        holding the per-stream state vector.
    """
    try:
        cls = _GENERATORS[kind]
    except KeyError:
        raise ValueError(
            f"unknown rng kind {kind!r}; expected one of {sorted(_GENERATORS)}"
        ) from None
    return cls(n_streams=n_streams, seed=seed, backend=backend)


def make_batched_rng(
    kind: str, streams_per_colony: int, seeds, backend=None
) -> DeviceRNG:
    """Batched generator: ``streams_per_colony`` streams per seed in ``seeds``.

    Stream block ``b`` reproduces exactly the sequence
    ``make_rng(kind, streams_per_colony, seeds[b])`` produces — the invariant
    the batched colony engine relies on for solo/batch equivalence.
    """
    try:
        cls = _GENERATORS[kind]
    except KeyError:
        raise ValueError(
            f"unknown rng kind {kind!r}; expected one of {sorted(_GENERATORS)}"
        ) from None
    return cls.from_seeds(streams_per_colony, seeds, backend=backend)
