"""Exhaustive check of the float64 Park-Miller row fill over every state.

:meth:`repro.rng.lcg.ParkMillerLCG.uniform_block` reduces ``x = f * 16807``
modulo ``IM = 2^31 - 1`` in float64 as ``x - trunc(x * fl(1/IM)) * IM``.
``rng/lcg.py`` argues that the truncation is always exact, for a state and
for its negation; this script confirms it for all ``2^31 - 2`` valid states
``f`` by driving the real fill (one round over a wide stream vector, chunk
by chunk) and checking, bit for bit:

* ``f`` steps to the exact int64 ``r = (f * 16807) mod IM`` and draws
  ``r / IM``;
* ``-f`` (a stream flagged by ``sign_flip``) steps to ``-r`` and draws
  ``-(r / IM)``;
* ``trunc`` agrees with the ``floor`` the fill used before negated states
  existed, on ``x * fl(1/IM)`` for every positive state.

It also counts the states for which multiplying by ``fl(1/IM)`` instead of
dividing by ``IM`` would change the sample, which is why the fill keeps
its divide.

Not collected by pytest (about two minutes on one core).  Run it from the
repo root::

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
    # States per chunk: this many stay in cache (larger chunks measured
    # slower).
    chunk = 1 << 17
    rng = ParkMillerLCG(n_streams=chunk, seed=0)
    inv_im = 1.0 / LCG_IM
    offsets = np.arange(chunk, dtype=np.int64)
    states = np.empty(chunk, dtype=np.int64)
    expected = np.empty(chunk, dtype=np.int64)
    signed = np.empty(chunk, dtype=np.int64)
    floored = np.empty(chunk, dtype=np.float64)
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
        np.multiply(states, LCG_IA, out=expected)
        np.remainder(expected, LCG_IM, out=expected)  # exact int64 oracle
        np.true_divide(expected, float(LCG_IM), out=exact)
        for sign in (1, -1):
            # Install the chunk directly (load_state_arrays would re-validate
            # and copy every state, and it rejects negative ones); the fill
            # must then reload its float copy from the int64 states.
            np.multiply(states, sign, out=rng._state)
            rng._flive = False
            rng.uniform_block(1, out=sample)
            np.multiply(expected, sign, out=signed)
            np.not_equal(rng._int_state(), signed, out=differs)
            if differs.any():
                i = int(np.argmax(differs))
                print(f"FOLD MISMATCH at state {sign * int(states[i])}: got "
                      f"{int(rng._state[i])}, want {int(signed[i])}")
                return 1
            # Negation is exact, so equal values here are equal bits.
            np.multiply(exact, sign, out=scaled)
            if not np.array_equal(sample[0], scaled):
                print(f"SAMPLE MISMATCH in the chunk starting at state "
                      f"{sign * lo}")
                return 1
        # trunc == floor on the positive quotient estimates.
        np.multiply(states, LCG_IA, out=scaled)
        np.multiply(scaled, inv_im, out=scaled)
        np.floor(scaled, out=floored)
        np.trunc(scaled, out=scaled)
        if not np.array_equal(scaled, floored):
            print(f"TRUNC != FLOOR in the chunk starting at state {lo}")
            return 1
        # The same states as samples: would r * fl(1/IM) equal r / IM?
        np.true_divide(states, float(LCG_IM), out=exact)
        np.multiply(states, inv_im, out=scaled)
        np.not_equal(scaled[:count], exact[:count], out=differs[:count])
        divide_mismatches += int(np.count_nonzero(differs[:count]))
    elapsed = time.perf_counter() - started
    print(f"float64 fold exact for all {LCG_IM - 1} states and their "
          f"negations; trunc == floor on every state ({elapsed:.1f} s)")
    print(f"multiply-by-inverse would change {divide_mismatches} samples")
    if divide_mismatches != EXPECTED_DIVIDE_MISMATCHES:
        print(f"expected {EXPECTED_DIVIDE_MISMATCHES} divide mismatches")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
