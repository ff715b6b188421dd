"""Generated inputs: task-based construction against a pure-Python oracle.

:func:`~repro.core.construction.taskbased.construct_exact_batch` must build,
ant by ant, the tours of the plain per-ant loop below, reading the same
Park-Miller darts: start at ``min(floor(u * n), n - 1)``; at each step take
sequential prefix sums of the unvisited weights over the candidates (the
``nn`` list, or every city for the full rule) and pick candidate
``min(#{cum < u * sum}, k - 1)``; when the candidates carry no weight, take
the first maximum of the full ``choice`` row over unvisited cities and
count a fallback.  The inputs are generated: n 3..30, ants and colonies
1..3, spare generator streams, ``nn`` None or 1..n-1, heterogeneous or
broadcast rows, and weights drawn from a few levels (ties everywhere) with
exact zeros, up to whole rows of them.

The data-parallel kernels (versions 7-8, I-Roulette) get the same
treatment: :meth:`DataParallelConstruction.build_batch` against a per-ant
loop that takes the first maximum of ``choice * u * live`` over the row
(or, under the ``"heuristic"`` tile rule, the tile winner of largest raw
choice) and falls back to the best unvisited city when that product is 0.

So does ACS's pseudo-random-proportional rule
(:meth:`PseudoProportionalChoice.build_batch`): greedy first maximum or
roulette over the unvisited weights, and the best unvisited city when
every unvisited weight is 0.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from types import SimpleNamespace

from repro.backend import WorkBuffers, resolve_backend
from repro.core.construction.dataparallel import DataParallelConstruction
from repro.core.construction.taskbased import construct_exact_batch
from repro.core.variant import ACSParams, PseudoProportionalChoice
from repro.rng import ParkMillerLCG
from repro.simt.device import TESLA_M2050
from repro.tsp.tour import validate_tour


def oracle(choice, cands, u, n):
    """One ant's closed tour and fallback count, in plain Python.

    ``choice`` is the colony's ``(n, n)`` weights, ``cands`` its per-city
    candidate lists (``None`` for the full rule) and ``u`` the ant's ``n``
    darts, one per step.
    """
    start = min(int(u[0] * n), n - 1)
    tour, visited, fallbacks = [start], {start}, 0
    for step in range(1, n):
        cur = tour[-1]
        row = [float(w) for w in choice[cur]]
        cand = list(range(n)) if cands is None else [int(c) for c in cands[cur]]
        cum, total = [], 0.0
        for c in cand:
            total += 0.0 if c in visited else row[c]
            cum.append(total)
        if total <= 0.0:
            masked = [-np.inf if c in visited else row[c] for c in range(n)]
            nxt = masked.index(max(masked))
            fallbacks += 1
        else:
            r = u[step] * total
            nxt = cand[min(sum(1 for s in cum if s < r), len(cand) - 1)]
        tour.append(nxt)
        visited.add(nxt)
    return tour + tour[:1], fallbacks


@st.composite
def colonies(draw):
    n = draw(st.integers(3, 30))
    B = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    spare = draw(st.sampled_from([0, 0, 2]))
    broadcast = draw(st.booleans())
    nn = draw(st.one_of(st.none(), st.integers(1, n - 1)))
    levels = draw(st.integers(1, 4))
    zero_frac = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = 1 if broadcast else B
    choice = rng.integers(1, levels + 1, size=(rows, n, n)) * 0.5
    choice[rng.random(choice.shape) < zero_frac] = 0.0
    choice[:, np.arange(n), np.arange(n)] = 0.0
    nn_list = None
    if nn is not None:
        # Arbitrary distinct candidates: nn of the other n - 1 cities,
        # shifted past the city itself.
        others = rng.permuted(np.tile(np.arange(n - 1), (rows, n, 1)), axis=2)
        nn_list = others[:, :, :nn]
        nn_list = nn_list + (nn_list >= np.arange(n)[None, :, None])
    if broadcast:
        choice = np.broadcast_to(choice, (B, n, n))
        if nn_list is not None:
            nn_list = np.broadcast_to(nn_list, (B, n, nn))
    seeds = [int(s) for s in rng.integers(1, 2**31 - 1, size=B)]
    return choice, nn_list, B, m, n, m + spare, seeds


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=colonies())
def test_batch_kernel_matches_python_oracle(case):
    choice, nn_list, B, m, n, spc, seeds = case
    tours, fallbacks = construct_exact_batch(
        choice,
        nn_list,
        ParkMillerLCG.from_seeds(spc, seeds),
        B,
        m,
        n,
        work=WorkBuffers(),
    )
    darts = ParkMillerLCG.from_seeds(spc, seeds).uniform_block(n)
    darts = darts.reshape(n, B, spc)[:, :, :m]
    for b in range(B):
        colony_fallbacks = 0
        for a in range(m):
            want, fb = oracle(
                choice[b], None if nn_list is None else nn_list[b], darts[:, b, a], n
            )
            np.testing.assert_array_equal(tours[b, a], want)
            validate_tour(tours[b, a], n)
            colony_fallbacks += fb
        assert fallbacks[b] == colony_fallbacks, b


def iroulette_oracle(choice, start_dart, darts, n, tile, rule):
    """One ant's closed tour and fallback count under I-Roulette.

    ``darts[step]`` holds the ant's ``n`` per-city draws of that step.
    """
    start = min(int(start_dart * n), n - 1)
    tour, visited, fallbacks = [start], {start}, 0
    spans = [(lo, min(lo + tile, n)) for lo in range(0, n, tile)]
    for step in range(1, n):
        cur = tour[-1]
        row = [float(w) for w in choice[cur]]
        prods = [
            row[j] * float(darts[step][j]) * (0.0 if j in visited else 1.0)
            for j in range(n)
        ]
        if rule == "product" or len(spans) == 1:
            nxt = prods.index(max(prods))
        else:
            winners = []
            for lo, hi in spans:
                tile_prods = prods[lo:hi]
                winners.append(lo + tile_prods.index(max(tile_prods)))
            keys = [row[c] if prods[c] > 0.0 else -np.inf for c in winners]
            nxt = winners[keys.index(max(keys))]
        if prods[nxt] == 0.0:
            masked = [-np.inf if c in visited else row[c] for c in range(n)]
            nxt = masked.index(max(masked))
            fallbacks += 1
        tour.append(nxt)
        visited.add(nxt)
    return tour + tour[:1], fallbacks


@st.composite
def iroulette_colonies(draw):
    n = draw(st.sampled_from([3, 5, 9, 17, 31, 33, 40, 70]))
    B = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    rule = draw(st.sampled_from(["product", "heuristic"]))
    zero_frac = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # A few levels (ties everywhere), optionally with subnormal weights
    # whose products with a dart round to +0.0 although the weight is not
    # 0.  Without zeros or subnormals the kernel skips its zero check.
    levels = [0.5, 1.0, 2.0]
    if draw(st.booleans()):
        levels += [5e-324, 1e-300]
    levels = np.array(levels)
    choice = levels[rng.integers(0, len(levels), size=(B, n, n))]
    choice[rng.random(choice.shape) < zero_frac] = 0.0
    if draw(st.booleans()):
        choice[:, np.arange(n), np.arange(n)] = 0.0
    seeds = [int(s) for s in rng.integers(1, 2**31 - 1, size=B)]
    return choice, B, m, n, rule, seeds


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=iroulette_colonies())
def test_data_parallel_kernel_matches_iroulette_oracle(case):
    choice, B, m, n, rule, seeds = case
    kernel = DataParallelConstruction(tile=32, tile_rule=rule)
    backend = resolve_backend("numpy")
    bstate = SimpleNamespace(
        B=B, n=n, m=m, nn=1, device=TESLA_M2050, backend=backend,
        work=WorkBuffers(backend), choice_info=choice,
    )
    spc = kernel.rng_streams(n, m)
    res = kernel.build_batch(
        bstate, ParkMillerLCG.from_seeds(spc, seeds), collect=False
    )
    darts = ParkMillerLCG.from_seeds(spc, seeds).uniform_block(n)
    darts = darts.reshape(n, B, m, n)  # (step, colony, ant, city)
    for b in range(B):
        colony_fallbacks = 0
        for a in range(m):
            # The start dart is stream a of colony b's block.
            start_dart = darts[0, b].reshape(-1)[a]
            want, fb = iroulette_oracle(
                choice[b], start_dart, darts[:, b, a], n, 32, rule
            )
            np.testing.assert_array_equal(res.tours[b, a], want)
            validate_tour(res.tours[b, a], n)
            colony_fallbacks += fb
        assert res.fallback_steps[b] == colony_fallbacks, b


def acs_oracle(choice, explore, roulette, start_dart, n, q0):
    """One ACS ant's closed tour in plain Python.

    ``explore[step]`` and ``roulette[step]`` are the ant's two darts of
    that step; the local pheromone update never changes ``choice``.
    """
    start = min(int(start_dart * n), n - 1)
    tour, visited = [start], {start}
    for step in range(1, n):
        row = [float(w) for w in choice[tour[-1]]]
        w = [0.0 if c in visited else row[c] for c in range(n)]
        total = 0.0
        cum = []
        for x in w:
            total += x
            cum.append(total)
        if total <= 0.0:
            masked = [-np.inf if c in visited else row[c] for c in range(n)]
            nxt = masked.index(max(masked))
        elif explore[step] < q0:
            nxt = w.index(max(w))
        else:
            r = roulette[step] * total
            nxt = min(sum(1 for s in cum if s < r), n - 1)
        tour.append(nxt)
        visited.add(nxt)
    return tour + tour[:1]


@st.composite
def acs_colonies(draw):
    n = draw(st.integers(3, 24))
    B = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    q0 = draw(st.sampled_from([0.0, 0.5, 1.0]))
    zero_frac = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    choice = np.array([0.5, 1.0, 2.0])[rng.integers(0, 3, size=(B, n, n))]
    choice[rng.random(choice.shape) < zero_frac] = 0.0
    choice[:, np.arange(n), np.arange(n)] = 0.0
    seeds = [int(s) for s in rng.integers(1, 2**31 - 1, size=B)]
    return choice, B, m, n, q0, seeds


class _FixedChoice:
    """Choice-kernel stand-in that installs a given ``choice_info``."""

    def __init__(self, choice):
        self.choice = choice

    def run_batch(self, bstate, collect=True):
        bstate.choice_info = self.choice
        return []


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=acs_colonies())
def test_acs_kernel_matches_python_oracle(case):
    choice, B, m, n, q0, seeds = case
    policy = PseudoProportionalChoice(ACSParams(q0=q0))
    policy.tau0 = np.full(B, 0.01)
    backend = resolve_backend("numpy")
    bstate = SimpleNamespace(
        B=B, n=n, m=m, device=TESLA_M2050, backend=backend,
        work=WorkBuffers(backend), pheromone=np.full((B, n, n), 0.01),
    )
    spc = policy.rng_streams(None, n, m)
    tours, _, _ = policy.build_batch(
        bstate, None, _FixedChoice(choice), ParkMillerLCG.from_seeds(spc, seeds),
        collect=False,
    )
    darts = ParkMillerLCG.from_seeds(spc, seeds).uniform_block(n)
    darts = darts.reshape(n, B, spc)
    for b in range(B):
        for a in range(m):
            want = acs_oracle(
                choice[b], darts[:, b, a], darts[:, b, m + a], darts[0, b, a], n, q0
            )
            np.testing.assert_array_equal(tours[b, a], want)
            validate_tour(tours[b, a], n)
