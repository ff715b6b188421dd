"""Park-Miller minimal-standard LCG — the paper's "device function" RNG.

The sequential ACOTSP code draws its uniforms from ``ran01``, a Park-Miller
(Lehmer) generator with multiplier 16807 modulo the Mersenne prime 2^31 - 1,
evaluated with Schrage's trick to avoid 64-bit overflow in 32-bit C.  The
paper's kernel version 3 replaces CURAND with this same generator compiled as
a device function and reports a 10-20 % speed-up ("Although randomness could,
in principle, be compromised, this function is used by the sequential code").

We implement the exact recurrence vectorised over streams; see
:func:`lcg_step` for why the direct 64-bit modular form replaces Schrage's
decomposition without changing a single output.
"""

from __future__ import annotations

import numpy as np

from repro.rng.streams import DeviceRNG, split_seed

__all__ = ["ParkMillerLCG", "LCG_IA", "LCG_IM", "lcg_step"]

LCG_IA = 16807
LCG_IM = 2147483647  # 2**31 - 1
_INV_IM = 1.0 / LCG_IM  # fl(1/IM): the float row fill's quotient estimate


def lcg_step(state: np.ndarray, xp=np) -> np.ndarray:
    """One Park-Miller step, vectorised.

    The C code needs Schrage's decomposition (``k = s / IQ; s = IA * (s - k *
    IQ) - IR * k``) because ``IA * s`` overflows 32-bit arithmetic; in int64
    the product is at most ``16807 * (2^31 - 2) < 2^46``, so ``(IA * s) mod
    IM`` can be computed directly and yields the *identical* value (that
    identity is exactly what Schrage's trick proves).  Because ``IM = 2^31 -
    1`` is a Mersenne prime, the modulo itself reduces to mask-and-shift
    folding (``x mod (2^31 - 1) == (x & IM) + (x >> 31)``, folded once more
    into ``[0, IM)``) — no integer division anywhere, which matters when the
    simulator advances millions of streams per construction step.

    Parameters
    ----------
    state:
        ``int64`` array of current states, each in ``[1, IM - 1]``.
    xp:
        Array module the state lives in (numpy by default; a backend's
        ``xp`` for device-resident streams).  Integer arithmetic is exact,
        so every branch returns identical values on every backend.

    Returns
    -------
    numpy.ndarray
        Next states, same shape/dtype, each in ``[1, IM - 1]``.
    """
    if state.size < 8192:
        # Few streams: ufunc-call overhead dominates, so the two-op direct
        # modulo wins despite the hardware divide.
        return (state * LCG_IA) % LCG_IM
    x = state * LCG_IA  # < 2^46, exact in int64
    x = (x & LCG_IM) + (x >> 31)  # < 2^31 + 2^15: at most one more fold
    if xp is np:
        np.subtract(x, LCG_IM, out=x, where=x >= LCG_IM)
    else:
        x -= (x >= LCG_IM) * LCG_IM
    return x


class ParkMillerLCG(DeviceRNG):
    """Stream-parallel Park-Miller generator (ACOTSP's ``ran01``).

    Each stream's state is a positive 31-bit integer; zero is invalid (it is
    a fixed point of the recurrence), so seeding maps into ``[1, IM - 1]``.

    A stream can also be *negated* (:meth:`sign_flip`): the float64 row fill
    then steps it to the negation of its usual successor and draws the
    negation of its usual sample, so the sign rides along as a one-bit flag
    at no cost to the sequence.  :meth:`clear_signs` drops every flag.

    Examples
    --------
    >>> rng = ParkMillerLCG(n_streams=4, seed=42)
    >>> u = rng.uniform()
    >>> u.shape, bool((u >= 0).all() and (u < 1).all())
    ((4,), True)
    """

    cost_kind = "lcg"
    #: ``fl(1 / IM)``: states are never 0
    min_uniform = 1.0 / LCG_IM

    def __init__(self, n_streams: int, seed: int, backend=None) -> None:
        super().__init__(n_streams=n_streams, seed=seed, backend=backend)
        self._state = self.backend.from_host(self._derive_states(seed, n_streams))
        # The row fill's float64 copy of the states (lazily sized: streams
        # can grow when from_seeds installs a batched state vector).  While
        # ``_flive`` is set it, not ``_state``, holds the current states.
        self._fstate: np.ndarray | None = None
        self._fquot: np.ndarray | None = None
        self._flive = False
        # The fill's constants IA, fl(1/IM) and IM as 0-d float64 arrays on
        # the backend: a ufunc takes a 0-d array operand with less per-call
        # work than a Python scalar, and the values (all exact in float64)
        # are the ones the scalars would convert to.
        xp = self.backend.xp
        self._fconst = tuple(
            xp.asarray(c, dtype=np.float64) for c in (LCG_IA, _INV_IM, LCG_IM)
        )

    @classmethod
    def _derive_states(cls, seed: int, n_streams: int) -> np.ndarray:
        sub = split_seed(seed, n_streams)
        # Map 64-bit sub-seeds into the valid state range [1, IM-1].
        return (sub % np.uint64(LCG_IM - 1)).astype(np.int64) + 1

    def _load_states(self, per_seed_states: list) -> None:
        self._state = self.backend.from_host(np.concatenate(per_seed_states))
        # The stream count just changed: drop fill scratch sized for the old
        # one.
        self._fstate = self._fquot = None
        self._flive = False

    def _int_state(self) -> np.ndarray:
        """The int64 state vector, synced from a live float64 copy."""
        if self._flive:
            self._state[...] = self._fstate  # exact: integers below 2^31
            self._flive = False
        return self._state

    def _float_state(self) -> np.ndarray:
        """The float64 state vector, made live from the int64 one."""
        if not self._flive:
            st = self._state
            if self._fstate is None or self._fstate.shape != st.shape:
                xp = self.backend.xp
                self._fstate = xp.empty(st.shape, dtype=np.float64)
                self._fquot = xp.empty(st.shape, dtype=np.float64)
            self._fstate[...] = st  # exact: states are below 2^31
            self._flive = True
        return self._fstate

    def _next_raw(self) -> np.ndarray:
        self._state = lcg_step(self._int_state(), xp=self.backend.xp)
        return self._state

    def _max_raw(self) -> float:
        return float(LCG_IM)

    def uniform_block(self, rounds: int, out: np.ndarray | None = None) -> np.ndarray:
        """Bulk fill, bit-identical to ``rounds`` sequential :meth:`uniform` calls.

        Steps row by row in a float64 copy of the state vector, allocation-
        free and with no Python frame below this one: a construction kernel
        calls it once per step with ``rounds=1``
        (:class:`~repro.rng.streams.BlockedDraws`), so its row is used
        while it is still in cache and the call costs the six passes below
        plus one argument check.

        The states live in a float64 vector ``f`` and each row is reduced
        in floating point::

            x = f * IA;  q = trunc(x * fl(1/IM));  f = x - q * IM;  u = f / IM

        six float passes in place of :func:`lcg_step`'s seven int64 ones
        (two of them a masked subtract).  Exactness, step by step, for a
        positive state:

        * ``f`` is an integer in ``[1, IM - 1]``, so ``x = f * IA <
          2^46`` is an exact float64 integer (53-bit significand).
        * Write ``x = k * IM + r``.  ``r != 0`` because ``IM`` is prime
          and divides neither ``IA`` nor ``f``, so the fractional part of
          ``x / IM`` is ``r / IM``, which lies in ``[2^-31, 1 - 2^-31]``.
        * ``fl(1/IM)`` and the product each round once, so ``x *
          fl(1/IM)`` is ``x / IM`` to a relative error of about ``2^-52``
          -- an absolute error of at most about ``2^-37``, as ``x / IM <
          2^15``.  That cannot cross an integer from ``2^-31`` away, so
          the truncation is exactly ``k`` (for a positive value ``trunc``
          is ``floor``): no off-by-one correction pass.
        * ``q * IM = k * IM < 2^46`` and ``x - q * IM = r`` are exact, so
          ``f`` holds the same integer state as the int64 recurrence.

        A negated state ``-f`` (:meth:`sign_flip`) steps to exactly ``-r``:
        IEEE-754 rounding is symmetric in sign, so every product and the
        truncation toward zero give the negations of the positive case's
        values, and ``-x - (-k) * IM = -r`` is exact.  The sample is then
        ``-r / IM = -fl(r / IM)``, the negation of the positive sample.

        The final divide must stay a divide: ``r * fl(1/IM)`` rounds twice
        and differs from the correctly rounded ``r / IM`` in the last bit
        for 9,437,184 of the ``2^31 - 2`` states.  ``f / IM`` is the very
        operation :meth:`uniform`'s fused cast-and-divide performs, so the
        samples are bit-identical.  The float vector stays live across
        calls, so a run of one-round fills (one per construction step)
        pays no conversion; the state goes back to the int64 vector (an
        exact cast below ``2^31``) only when :func:`lcg_step` or a
        checkpoint reads it.  ``tests/rng/exhaustive_lcg_fold.py``
        checks both signs of every state.
        """
        if rounds < 0:
            raise ValueError(f"rounds must be non-negative, got {rounds}")
        if out is None:
            out = self.backend.xp.empty((rounds, self.n_streams), dtype=np.float64)
        elif out.shape[0] < rounds or out.shape[1:] != (self.n_streams,):
            raise ValueError(
                f"out buffer {out.shape} cannot hold ({rounds}, {self.n_streams})"
            )
        block = out[:rounds]
        f = self._fstate if self._flive else self._float_state()
        q = self._fquot
        ia, inv_im, im = self._fconst
        xp = self.backend.xp
        multiply, subtract = xp.multiply, xp.subtract
        for row in block:
            multiply(f, ia, f)  # x < 2^46, exact
            multiply(f, inv_im, q)
            xp.trunc(q, q)  # exactly x // IM toward zero (see above)
            multiply(q, im, q)
            subtract(f, q, f)  # x mod IM with the sign of x, exact
            xp.true_divide(f, im, row)
        self.samples_drawn += rounds * self.n_streams
        return block

    def sign_flip(self):
        """A bound sign flip: ``flip(streams)`` negates the states at
        ``streams`` (distinct indices).

        The row fill steps a negated stream exactly like the positive one
        and hands out the negated sample (see :meth:`uniform_block`), so a
        consumer can keep one flag bit per stream in the sign.  The
        callable holds the live float64 state vector, so a flip is one
        gather, negate and scatter with no lookups on the way.  Only the
        row fill may step a negated stream: :meth:`clear_signs` restores
        the positive states before anything else reads them.
        """
        f = self._float_state()

        def flip(streams) -> None:
            f[streams] = -f[streams]

        return flip

    def clear_signs(self) -> None:
        """Make every state positive again (undo every :meth:`sign_flip` flag)."""
        if self._flive:
            self.backend.xp.abs(self._fstate, out=self._fstate)
        else:
            self.backend.xp.abs(self._state, out=self._state)

    @property
    def state(self) -> np.ndarray:
        """Copy of the per-stream states (for tests and checkpointing)."""
        return self._int_state().copy()

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {"state": self.backend.to_host(self._int_state()).copy()}

    def load_state_arrays(self, arrays: dict) -> None:
        state = np.asarray(arrays["state"], dtype=np.int64)
        self._check_state_shape(state, "state")
        if bool((state < 1).any()) or bool((state >= LCG_IM).any()):
            raise ValueError(
                f"LCG states must lie in [1, {LCG_IM - 1}]; checkpoint holds "
                "out-of-range values"
            )
        self._state = self.backend.from_host(state.copy())
        self._flive = False
