"""Exhaustive check of the float64 Park-Miller row fill over every state.

:meth:`repro.rng.lcg.ParkMillerLCG._fill_rows_inplace` reduces ``x = f *
16807`` modulo ``IM = 2^31 - 1`` in float64 as ``x - floor(x * fl(1/IM)) *
IM``.  ``rng/lcg.py`` argues that the floor is always exact; this script
confirms it for all ``2^31 - 2`` valid states by driving the real fill
(one round over a wide stream vector, chunk by chunk) and comparing both
the next state and the drawn sample with the exact int64 ``(f * 16807) mod
IM``.  It also counts the states for which multiplying by ``fl(1/IM)``
instead of dividing by ``IM`` would change the sample, which is why the
fill keeps its divide.

Not collected by pytest (about a minute on one core).  Run it from the repo
root::

    PYTHONPATH=src python tests/rng/exhaustive_lcg_fold.py

Exits non-zero on the first mismatch.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.rng.lcg import LCG_IA, LCG_IM, ParkMillerLCG

#: states whose sample ``r * fl(1/IM)`` differs from ``r / IM``
EXPECTED_DIVIDE_MISMATCHES = 9_437_184


def main() -> int:
    # States per chunk: above the jump-ahead cutoff, so a one-round block
    # takes the row fill, yet small enough to stay in cache (larger chunks
    # measured slower).
    chunk = 2 * ParkMillerLCG.JUMP_AHEAD_MAX_ELEMENTS
    rng = ParkMillerLCG(n_streams=chunk, seed=0)
    inv_im = 1.0 / LCG_IM
    offsets = np.arange(chunk, dtype=np.int64)
    states = np.empty(chunk, dtype=np.int64)
    expected = np.empty(chunk, dtype=np.int64)
    sample = np.empty((1, chunk), dtype=np.float64)
    exact = np.empty(chunk, dtype=np.float64)
    scaled = np.empty(chunk, dtype=np.float64)
    differs = np.empty(chunk, dtype=bool)
    divide_mismatches = 0
    started = time.perf_counter()
    for lo in range(1, LCG_IM, chunk):
        count = min(chunk, LCG_IM - lo)
        np.add(offsets, lo, out=states)
        states[count:] = 1  # pad the short last chunk with a valid state
        # Install the chunk directly: load_state_arrays would re-validate
        # and copy every state, doubling the run time.
        np.copyto(rng._state, states)
        rng.uniform_block(1, out=sample)
        np.multiply(states, LCG_IA, out=expected)
        np.remainder(expected, LCG_IM, out=expected)  # exact int64 oracle
        np.not_equal(rng._state, expected, out=differs)
        if differs.any():
            i = int(np.argmax(differs))
            print(f"FOLD MISMATCH at state {int(states[i])}: got "
                  f"{int(rng._state[i])}, want {int(expected[i])}")
            return 1
        np.true_divide(expected, float(LCG_IM), out=exact)
        if not np.array_equal(sample[0], exact):
            print(f"SAMPLE MISMATCH in the chunk starting at state {lo}")
            return 1
        # The same states as samples: would r * fl(1/IM) equal r / IM?
        np.true_divide(states, float(LCG_IM), out=exact)
        np.multiply(states, inv_im, out=scaled)
        np.not_equal(scaled[:count], exact[:count], out=differs[:count])
        divide_mismatches += int(np.count_nonzero(differs[:count]))
    elapsed = time.perf_counter() - started
    print(f"float64 fold exact for all {LCG_IM - 1} states ({elapsed:.1f} s)")
    print(f"multiply-by-inverse would change {divide_mismatches} samples")
    if divide_mismatches != EXPECTED_DIVIDE_MISMATCHES:
        print(f"expected {EXPECTED_DIVIDE_MISMATCHES} divide mismatches")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
