"""repro.query: a columnar query engine over the shard warehouse.

The paper's analyses are filtered aggregations -- "median TCP RTT per
country on the Speedchecker platform", "samples to each probe's nearest
region", "per-day medians".  Running them through the record view
(:class:`repro.store.view.StoredDataset`) materializes one frozen
dataclass per measurement just to read two fields and throw it away.
This package evaluates the same queries directly on the memmapped shard
columns:

- :mod:`repro.query.spec` -- :class:`QuerySpec`, the canonical,
  digestable description of a query (filters, group keys, aggregates).
- :mod:`repro.query.plan` -- the scan planner: prunes shards using the
  per-column zone maps and interned probe/region tables embedded in
  shard headers, without touching column bytes.
- :mod:`repro.query.scan` -- vectorized shard scans (row masks, no
  record objects), shard-parallel via the :mod:`repro.exec` fork pool,
  merged in canonical shard order so parallel equals serial.
- :mod:`repro.analysis.sketch` -- the mergeable aggregation sketches
  the scans fold into.
- :mod:`repro.query.oracle` -- an exact record-at-a-time reference
  implementation; tests assert engine == oracle.
- :mod:`repro.query.cache` -- a query-result cache keyed by
  (manifest digest, journal digest, query digest), and
  :func:`result_lines`, the result's NDJSON event encoding.
- :mod:`repro.query.builder` -- the fluent :class:`QueryBuilder` API
  (``store.query().pings().where(...).group_by(...).run()``).

``python -m repro.query`` exposes the same engine on the command line
with JSON output.
"""

from repro.query.builder import QueryBuilder, QueryResult, execute, execute_lines
from repro.query.cache import result_lines
from repro.query.plan import ScanPlan, ShardPlan, build_plan
from repro.query.spec import (
    GROUP_KEYS,
    PING_KIND,
    SCALAR_AGGREGATES,
    TRACE_KIND,
    QueryError,
    QuerySpec,
)

__all__ = [
    "GROUP_KEYS",
    "PING_KIND",
    "SCALAR_AGGREGATES",
    "TRACE_KIND",
    "QueryBuilder",
    "QueryError",
    "QueryResult",
    "QuerySpec",
    "ScanPlan",
    "ShardPlan",
    "build_plan",
    "execute",
    "execute_lines",
    "result_lines",
    "store_backing",
]


def store_backing(dataset: object) -> "object | None":
    """The :class:`~repro.store.warehouse.DatasetStore` behind a dataset.

    Analyses accept both in-memory :class:`MeasurementDataset` objects
    and store-backed :class:`StoredDataset` views; the former have no
    shards to scan, so query-engine fast paths apply only when this
    returns a store.
    """
    from repro.store.view import StoredDataset

    if isinstance(dataset, StoredDataset):
        return dataset.store
    return None
