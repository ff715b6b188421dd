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
        # Block-fill caches (lazily sized: streams can grow when from_seeds
        # installs a batched state vector).
        self._powers: dict[int, np.ndarray] = {}
        self._iblock: np.ndarray | None = None
        self._ifold: np.ndarray | None = None
        self._fstate: np.ndarray | None = None
        self._fquot: np.ndarray | None = None

    @classmethod
    def _derive_states(cls, seed: int, n_streams: int) -> np.ndarray:
        sub = split_seed(seed, n_streams)
        # Map 64-bit sub-seeds into the valid state range [1, IM-1].
        return (sub % np.uint64(LCG_IM - 1)).astype(np.int64) + 1

    def _load_states(self, per_seed_states: list) -> None:
        self._state = self.backend.from_host(np.concatenate(per_seed_states))
        # The stream count just changed: drop block-fill scratch sized for
        # the old one (powers are per-rounds, stream-count independent).
        self._iblock = self._ifold = self._fstate = self._fquot = None

    def _next_raw(self) -> np.ndarray:
        self._state = lcg_step(self._state, xp=self.backend.xp)
        return self._state

    def _max_raw(self) -> float:
        return float(LCG_IM)

    #: block elements up to which the jump-ahead outer product beats
    #: row-by-row stepping (beyond it the 2x int64 scratch falls out of
    #: cache and every fold pass streams from DRAM; measured crossover)
    JUMP_AHEAD_MAX_ELEMENTS = 1 << 16

    def uniform_block(self, rounds: int, out: np.ndarray | None = None) -> np.ndarray:
        """Bulk fill, bit-identical to ``rounds`` sequential :meth:`uniform` calls.

        Cache-sized blocks use **jump-ahead**: a Lehmer generator has no
        additive term, so the ``r``-th successor of state ``s`` is just
        ``s * IA^r mod IM`` — the whole ``(rounds, n_streams)`` block is one
        outer product of the state vector with precomputed multiplier
        powers, reduced mod the Mersenne prime by two mask-and-shift
        folds.  ~9 block-wide operations replace ``rounds`` sequential
        vector steps — the same trick the paper's bulk-generation kernel
        (construction version 6) uses to fill its texture buffer at
        streaming rates.  Exactness: with states and powers in ``[1, IM -
        1]`` the product ``x`` is at most ``(IM - 1)^2 < 2^62`` (exact in
        int64).  The first fold ``y = (x & IM) + (x >> 31)`` is at most
        ``(2^31 - 1) + (2^31 - 4) = 2^32 - 5``, so ``y >> 31`` is 0 or 1.
        If it is 1, the second fold gives ``y - IM <= 2^31 - 4``; if it is
        0, it leaves ``y <= IM``.  Each fold keeps the residue, and ``y``
        is never ``0 mod IM`` (``IM`` is prime and divides neither
        factor), so ``y`` is neither ``IM`` nor ``0`` and the second fold
        lands in ``[1, IM - 1]``: the fully reduced state.

        Wider blocks would push the outer product's int64 scratch out of
        cache, so they step row by row in a float64 copy of the state
        vector (:meth:`_fill_rows_inplace`: an exact float reduction with
        fewer passes than :func:`lcg_step`'s folding, and no per-step
        temporaries).
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
        if rounds == 0:
            return block
        if rounds * self.n_streams <= self.JUMP_AHEAD_MAX_ELEMENTS:
            self._fill_jump_ahead(rounds, block, xp)
        elif xp is np:
            self._fill_rows_inplace(rounds, block)
        else:
            st = self._state
            for r in range(rounds):
                st = lcg_step(st, xp=xp)
                xp.true_divide(st, float(LCG_IM), out=block[r])
            self._state = st
        self.samples_drawn += rounds * self.n_streams
        return block

    def _fill_jump_ahead(self, rounds: int, block: np.ndarray, xp) -> None:
        """Outer-product fill of ``block[:rounds]`` with raw states."""
        powers = self._powers.get(rounds)
        if powers is None:
            powers = self.backend.from_host(
                np.array(
                    [pow(LCG_IA, r, LCG_IM) for r in range(1, rounds + 1)],
                    dtype=np.int64,
                )[:, None]
            )
            self._powers[rounds] = powers
        if (
            self._iblock is None
            or self._iblock.shape[0] < rounds
            or self._iblock.shape[1] != self.n_streams
        ):
            grow = (
                rounds
                if self._iblock is None or self._iblock.shape[1] != self.n_streams
                else max(rounds, self._iblock.shape[0]),
                self.n_streams,
            )
            self._iblock = xp.empty(grow, dtype=np.int64)
            self._ifold = xp.empty(grow, dtype=np.int64)
        x = self._iblock[:rounds]
        t = self._ifold[:rounds]
        xp.multiply(self._state[None, :], powers, out=x)  # < 2^62, exact
        for _ in range(2):  # two folds reduce fully (see uniform_block)
            xp.right_shift(x, 31, out=t)
            xp.bitwise_and(x, LCG_IM, out=x)
            xp.add(x, t, out=x)
        self._state = x[-1].copy()
        # Fused cast-and-divide: int64 -> float64 is exact below 2^31.
        xp.true_divide(x, float(LCG_IM), out=block)

    def _fill_rows_inplace(self, rounds: int, block: np.ndarray) -> None:
        """Row-by-row fill for wide streams, allocation-free (numpy only).

        The states are copied once into a float64 scratch vector ``f`` and
        each row is reduced in floating point::

            x = f * IA;  q = floor(x * fl(1/IM));  f = x - q * IM;  u = f / IM

        six float passes in place of :func:`lcg_step`'s seven int64 ones
        (two of them a masked subtract).  Exactness, step by step:

        * ``f`` is an integer in ``[1, IM - 1]``, so ``x = f * IA <
          2^46`` is an exact float64 integer (53-bit significand).
        * Write ``x = k * IM + r``.  ``r != 0`` because ``IM`` is prime
          and divides neither ``IA`` nor ``f``, so the fractional part of
          ``x / IM`` is ``r / IM``, which lies in ``[2^-31, 1 - 2^-31]``.
        * ``fl(1/IM)`` and the product each round once, so ``x *
          fl(1/IM)`` is ``x / IM`` to a relative error of about ``2^-52``
          -- an absolute error of at most about ``2^-37``, as ``x / IM <
          2^15``.  That cannot cross an integer from ``2^-31`` away, so
          the floor is exactly ``k``: no off-by-one correction pass.
        * ``q * IM = k * IM < 2^46`` and ``x - q * IM = r`` are exact, so
          ``f`` holds the same integer state as the int64 recurrence.

        The final divide must stay a divide: ``r * fl(1/IM)`` rounds twice
        and differs from the correctly rounded ``r / IM`` in the last bit
        for 9,437,184 of the ``2^31 - 2`` states.  ``f / IM`` is the very
        operation :meth:`uniform`'s fused cast-and-divide performs, so the
        samples are bit-identical.  The state goes back to the int64
        vector at the end of the call (an exact cast below ``2^31``), so
        :func:`lcg_step`, jump-ahead and checkpoints never see the float
        copy.  ``tests/rng/exhaustive_lcg_fold.py`` checks the floor over
        every state.
        """
        st = self._state
        if self._fstate is None or self._fstate.shape != st.shape:
            self._fstate = np.empty(st.shape, dtype=np.float64)
            self._fquot = np.empty(st.shape, dtype=np.float64)
        f, q = self._fstate, self._fquot
        f[...] = st  # exact: states are below 2^31
        for r in range(rounds):
            np.multiply(f, LCG_IA, out=f)  # x < 2^46, exact
            np.multiply(f, _INV_IM, out=q)
            np.floor(q, out=q)  # exactly x // IM (see above)
            np.multiply(q, LCG_IM, out=q)
            np.subtract(f, q, out=f)  # x mod IM, exact
            np.true_divide(f, float(LCG_IM), out=block[r])
        st[...] = f

    @property
    def state(self) -> np.ndarray:
        """Copy of the per-stream states (for tests and checkpointing)."""
        return self._state.copy()

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {"state": self.backend.to_host(self._state).copy()}

    def load_state_arrays(self, arrays: dict) -> None:
        state = np.asarray(arrays["state"], dtype=np.int64)
        self._check_state_shape(state, "state")
        if bool((state < 1).any()) or bool((state >= LCG_IM).any()):
            raise ValueError(
                f"LCG states must lie in [1, {LCG_IM - 1}]; checkpoint holds "
                "out-of-range values"
            )
        self._state = self.backend.from_host(state.copy())
