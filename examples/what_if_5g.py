"""What if the wireless last mile upgraded to 5G?

The paper's section-7 discussion: 5G promises 1 ms air latency, but early
in-the-wild studies find minimal end-to-end gains because the radio leg
is only part of the last mile.  This example swaps the cellular model for
the 5G extension model at several radio-improvement levels and re-asks
the MTP feasibility question.

It also quantifies why the paper refrained from geographic routing
analysis: the GeoIP database's hop errors make path-geometry conclusions
unreliable.

Run with::

    python examples/what_if_5g.py
"""

import argparse

import numpy as np

from repro import build_world
from repro.analysis.georouting import assess_geo_routing
from repro.analysis.report import format_percent, format_table
from repro.analysis.thresholds import MTP_MS
from repro.core.config import LastMileConfig
from repro.lastmile.fiveg import FiveGLastMile
from repro.lastmile.models import CellularLastMile
from repro.resolve.geoip import GeoIPDatabase


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scale", type=float, default=0.01)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    config = LastMileConfig()
    minimal_path_ms = 6.0  # an idealized edge server one hop behind the RAN

    rows = []
    scenarios = [("LTE today", None)] + [
        (f"5G, radio {int(1 / improvement)}x better", improvement)
        for improvement in (0.5, 0.25, 0.1)
    ]
    for label, improvement in scenarios:
        if improvement is None:
            model = CellularLastMile(config=config)
        else:
            model = FiveGLastMile(config=config, radio_improvement=improvement)
        air, wire = model.draw_batch(rng, 6000)
        draws = air + wire
        rows.append(
            [
                label,
                f"{np.median(draws):.1f}",
                format_percent(float((draws + minimal_path_ms < MTP_MS).mean())),
            ]
        )
    print("MTP feasibility with an idealized edge server (path = 6 ms):\n")
    print(
        format_table(
            ["Last mile", "Median last-mile [ms]", "Samples meeting MTP"], rows
        )
    )

    print("\nWhy the paper refrains from geographic routing analysis:")
    world = build_world(seed=args.seed, scale=args.scale)
    paths = [
        world.planner.plan(probe, region)
        for probe in world.speedchecker.probes[:20]
        for region in world.catalog.all()[::25]
    ]
    assessment = assess_geo_routing(
        paths, GeoIPDatabase(world.rngs.stream("example.geoip"))
    )
    print(
        f"  hops assessed: {assessment.hop_count}; "
        f"median hop error {assessment.median_hop_error_km:.0f} km "
        f"(P90 {assessment.p90_hop_error_km:.0f} km); "
        f"{format_percent(assessment.unreliable_path_share)} of paths have "
        f">25% length error"
    )


if __name__ == "__main__":
    main()
