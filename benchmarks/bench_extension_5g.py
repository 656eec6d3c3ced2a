"""Extension bench: the 5G last-mile model vs today's cellular.

Quantifies the paper's forward-looking claim that 5G's promised radio
gains translate into only modest end-to-end improvements.
"""

import numpy as np

from repro.analysis.thresholds import MTP_MS
from repro.core.config import LastMileConfig
from repro.lastmile.fiveg import FiveGLastMile
from repro.lastmile.models import CellularLastMile


def test_5g_last_mile(benchmark):
    config = LastMileConfig()
    rng = np.random.default_rng(0)

    def compare():
        lte = CellularLastMile(config=config)
        fiveg = FiveGLastMile(config=config, radio_improvement=0.1)
        lte_air, lte_wire = lte.draw_batch(rng, 3000)
        fiveg_air, fiveg_wire = fiveg.draw_batch(rng, 3000)
        return (
            float(np.median(lte_air + lte_wire)),
            float(np.median(fiveg_air + fiveg_wire)),
        )

    lte_median, fiveg_median = benchmark.pedantic(compare, rounds=2, iterations=1)
    gain = lte_median / fiveg_median
    print(
        f"\ncellular median: LTE={lte_median:.1f} ms, "
        f"5G(10x radio)={fiveg_median:.1f} ms, end-to-end gain {gain:.2f}x "
        f"(MTP budget {MTP_MS:.0f} ms)"
    )
    assert 1.0 < gain < 3.0  # far below the promised 10x
