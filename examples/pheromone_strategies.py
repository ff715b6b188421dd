"""Pheromone-update strategies: one update, five execution plans.

All five Table III/IV kernels compute the *same* mathematical update
(evaporation + symmetric 1/C_k deposits); this example verifies that on a
real instance, then prices each strategy on both devices — reproducing the
paper's central trade-off: scatter-to-gather avoids atomics at the cost of
O(n^4 / θ) memory traffic, and loses by orders of magnitude.

Run:  python examples/pheromone_strategies.py [--instance a280]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro import ACOParams, DEVICES, load_instance
from repro.core import BatchColonyState
from repro.core.pheromone import PHEROMONE_VERSIONS
from repro.experiments.harness import pheromone_model_time
from repro.tsp.suite import PAPER_INSTANCE_NAMES
from repro.tsp.tour import edge_indices, random_tour, tour_lengths
from repro.util.tables import Table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instance", default="kroC100", choices=PAPER_INSTANCE_NAMES)
    args = parser.parse_args()

    instance = load_instance(args.instance)
    c1060, m2050 = DEVICES["c1060"], DEVICES["m2050"]

    # One set of tours shared by every strategy, as the (B, m, n) edge table
    # and (B, m) lengths a one-colony batch update reads.
    rng = np.random.default_rng(7)
    n = instance.n
    tours = np.stack([random_tour(n, rng) for _ in range(n)])
    edges = edge_indices(tours[None])
    lengths = tour_lengths(tours, instance.distance_matrix())[None]

    table = Table(
        ["v", "kernel", "C1060 model ms", "M2050 model ms", "matrix equal?"],
        title=f"pheromone update strategies on {instance.name} (n={n}, m={n})",
    )

    reference = None
    for version in sorted(PHEROMONE_VERSIONS):
        strategy = PHEROMONE_VERSIONS[version]()
        state = BatchColonyState.create([instance], [ACOParams(seed=1)], m2050)
        strategy.update_batch(state, edges, lengths)

        if reference is None:
            reference = state.pheromone.copy()
            equal = "reference"
        else:
            equal = "yes" if np.allclose(reference, state.pheromone, rtol=1e-12) else "NO"

        t_c = pheromone_model_time(version, instance.name, c1060) * 1e3
        t_m = pheromone_model_time(version, instance.name, m2050) * 1e3
        table.add_row([version, strategy.label, f"{t_c:.2f}", f"{t_m:.2f}", equal])

    print(table.render())
    print(
        "\nThe atomic kernel wins despite serialisation; the C1060 pays a "
        "CAS-emulation factor for float atomics (CC 1.3), the M2050 does not —\n"
        "that asymmetry is the whole story of the paper's Figure 5."
    )


if __name__ == "__main__":
    main()
