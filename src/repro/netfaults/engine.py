"""Fault-aware batch execution: the engine wrapper that reacts to events.

:class:`NetfaultEngine` wraps a batch engine the way
:class:`repro.faults.injectors.FaultyEngine` does for harness faults,
but instead of corrupting calls it *reshapes* them around the network:

- a unit's request batch is mapped onto the day's virtual-time slots
  (row ``i`` of ``n`` executes at slot ``i * SLOTS_PER_DAY // n``),
  splitting the batch into contiguous per-epoch segments;
- each segment installs its epoch's :class:`EpochTopologyView` on the
  planner's :class:`~repro.measure.pathpolicy.FailoverPathPolicy`, so
  surviving requests plan over re-converged routes;
- requests towards a region under a regional outage, and requests whose
  serving ISP lost all routes to the provider in this epoch, are dropped
  (no measurement row) with the responsible event recorded;
- survivors execute through the inner engine *with the unit's own
  generator threaded sequentially through the segments*, so the wrapper
  adds no draws of its own and an event-free day is draw-for-draw
  identical to an unwrapped run.

Per-row provenance (routing epoch + rerouting event id) is attached to
the resulting blocks as the optional ``epochs`` / ``outage_ids``
columns; human-readable event effects accumulate in the journal drained
by :meth:`take_events`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type, TypeVar

import numpy as np

from repro.measure.batch import RequestBatch, RequestTables
from repro.measure.engine import BatchEngine
from repro.measure.pathpolicy import FailoverPathPolicy
from repro.measure.results import (
    PING_COLUMN_DTYPES,
    TRACE_COLUMN_DTYPES,
    PingBlock,
    TraceBlock,
)
from repro.netfaults.events import SLOTS_PER_DAY, DayTimeline, NetworkEvent
from repro.netfaults.plan import NetworkFaultPlan

_Block = TypeVar("_Block", PingBlock, TraceBlock)


def find_netfault_engine(engine: object) -> Optional["NetfaultEngine"]:
    """The :class:`NetfaultEngine` inside a wrapper chain, if any.

    Campaign units receive the engine behind zero or more wrappers
    (e.g. :class:`repro.faults.injectors.FaultyEngine`); this walks the
    conventional ``_inner`` links so units can drain the netfault
    journal without knowing the wrapping order.
    """
    current: object = engine
    for _ in range(8):
        if isinstance(current, NetfaultEngine):
            return current
        current = getattr(current, "_inner", None)
        if current is None:
            return None
    return None


#: Per block kind: the column schema and the ragged offsets column.
_BLOCK_LAYOUT = {
    PingBlock: (PING_COLUMN_DTYPES, "sample_offsets"),
    TraceBlock: (TRACE_COLUMN_DTYPES, "hop_offsets"),
}


def _merge_blocks(
    kind: Type[_Block],
    segments: Sequence[_Block],
    epochs: np.ndarray,
    outage_ids: np.ndarray,
) -> _Block:
    """Concatenate per-segment blocks of one kind, re-interning codes.

    Probe/region tables are re-interned in first-seen order over the
    concatenated rows -- the same order a single-segment batch would
    have produced -- and the ragged offsets (samples or hops) are
    shifted into one flat value array.
    """
    schema, offsets_name = _BLOCK_LAYOUT[kind]
    tables = RequestTables()
    parts: Dict[str, List[np.ndarray]] = {
        name: [] for name in schema if name != offsets_name
    }
    offset_parts: List[np.ndarray] = [np.zeros(1, np.int64)]
    shift = 0
    for block in segments:
        probe_remap = np.array(
            [tables.probe_code(probe) for probe in block.probes], np.int32
        )
        region_remap = np.array(
            [tables.region_code(region) for region in block.regions], np.int32
        )
        remapped = {
            "probe_codes": probe_remap[block.probe_codes],
            "region_codes": region_remap[block.region_codes],
        }
        for name, columns in parts.items():
            columns.append(remapped.get(name, getattr(block, name)))
        offsets = getattr(block, offsets_name)
        offset_parts.append(offsets[1:] + shift)
        shift += int(offsets[-1])
    merged = {
        name: np.concatenate(columns) if columns else np.empty(0, schema[name])
        for name, columns in parts.items()
    }
    merged[offsets_name] = np.concatenate(offset_parts)
    return kind(
        probes=tables.probes,
        regions=tables.regions,
        epochs=epochs,
        outage_ids=outage_ids,
        **merged,
    )


def _count_effects(
    effects: Dict[int, List[int]], event_ids: np.ndarray, slot: int
) -> None:
    """Add one to ``effects[event][slot]`` per row blamed on ``event``
    (slot 0 counts drops, slot 1 reroutes); ``-1`` blames nobody."""
    events, counts = np.unique(event_ids[event_ids >= 0], return_counts=True)
    for event_id, count in zip(events.tolist(), counts.tolist()):
        effects.setdefault(event_id, [0, 0])[slot] += count


class NetfaultEngine:
    """A batch engine that executes through a network fault plan."""

    def __init__(
        self,
        inner: BatchEngine,
        plan: NetworkFaultPlan,
        policy: FailoverPathPolicy,
    ) -> None:
        self._inner = inner
        self._plan = plan
        self._policy = policy
        self._events: List[str] = []
        #: (day, epoch, policy token) -> (provider, isp, continent) ->
        #: (keep, blame event id, reroute event id).  Routing verdicts
        #: are pure given the epoch's view and the policy state, and the
        #: key space collapses hard (probes share ISPs, regions share
        #: networks), so ping and trace batches resolve each scope once
        #: and each distinct (probe, region) pair costs one dict probe.
        self._verdicts: Dict[
            Tuple, Dict[Tuple, Tuple[bool, int, int]]
        ] = {}
        #: provider code -> network code (the topology is fixed for the
        #: engine's lifetime, so this never invalidates).
        self._network_of: Dict[str, str] = {}

    @property
    def inner(self) -> BatchEngine:
        return self._inner

    @property
    def plan(self) -> NetworkFaultPlan:
        return self._plan

    @property
    def policy(self) -> FailoverPathPolicy:
        return self._policy

    def take_events(self) -> List[str]:
        """Drain the accumulated event-effect journal."""
        events, self._events = self._events, []
        return events

    # -- segmentation ------------------------------------------------------

    def _segments(self, batch: RequestBatch) -> List[Tuple[int, int, int, int]]:
        """Contiguous (start, end, day, epoch) runs of a request batch.

        Row ``i`` of ``n`` executes at virtual slot
        ``i * SLOTS_PER_DAY // n``; the slot is non-decreasing in ``i``
        so equal-epoch runs are contiguous and the inner engine sees
        each epoch's survivors as one ordered sub-batch.
        """
        n = len(batch)
        if not n:
            return []
        days = batch.days.astype(np.int64)
        slots = np.arange(n, dtype=np.int64) * SLOTS_PER_DAY // n
        epochs = np.empty(n, np.int64)
        for day in np.unique(days).tolist():
            timeline = self._plan.timeline(day)
            by_slot = np.array(
                [timeline.epoch_at(slot) for slot in range(SLOTS_PER_DAY)]
            )
            rows = days == day
            epochs[rows] = by_slot[slots[rows]]
        breaks = np.flatnonzero((np.diff(days) != 0) | (np.diff(epochs) != 0))
        bounds = [0, *(breaks + 1).tolist(), n]
        return [
            (start, end, int(days[start]), int(epochs[start]))
            for start, end in zip(bounds, bounds[1:])
        ]

    def _filter_segment(
        self,
        batch: RequestBatch,
        timeline: DayTimeline,
        epoch: int,
        view,
    ) -> Tuple[RequestBatch, np.ndarray, Dict[int, List[int]]]:
        """Apply one epoch's events to a segment's rows.

        Returns the surviving rows, their rerouting event ids (``-1``
        when unaffected), and per-event (dropped, rerouted) counters.
        """
        topology = self._plan.topology
        outages = timeline.outages(epoch)
        removed = timeline.removed_edges(epoch)
        graph_events = tuple(
            event
            for event in timeline.active[epoch]
            if event.edge is not None
        )
        effects: Dict[int, List[int]] = {}
        n = len(batch)
        reroutes = np.full(n, -1, np.int32)
        outage_keys = {
            (event.network, event.continent): event.event_id
            for event in reversed(outages)
        }
        if not outage_keys and not removed:
            # Event-free epoch: everything survives on baseline routes.
            return batch, reroutes, effects
        keep = np.ones(n, bool)
        if outage_keys:
            network_of = self._network_of
            region_outage = []
            for region in batch.regions:
                network = network_of.get(region.provider_code)
                if network is None:
                    network = topology.network_code(region.provider_code)
                    network_of[region.provider_code] = network
                region_outage.append(
                    outage_keys.get((network, region.continent), -1)
                )
            outage_of = np.array(region_outage, np.int64)[batch.region_codes]
            keep = outage_of < 0
            _count_effects(effects, outage_of[~keep], 0)
        if removed:
            rows = np.flatnonzero(keep)
            width = len(batch.regions)
            pairs, pair_of = np.unique(
                batch.probe_codes[rows].astype(np.int64) * width
                + batch.region_codes[rows],
                return_inverse=True,
            )
            verdicts = self._verdicts.setdefault(
                (timeline.day, epoch, self._policy.cache_token()), {}
            )
            pair_verdicts = np.array(
                [
                    self._verdict(
                        verdicts,
                        batch.probes[pair // width],
                        batch.regions[pair % width].provider_code,
                        view,
                        graph_events,
                    )
                    for pair in pairs.tolist()
                ],
                np.int64,
            ).reshape(-1, 3)[pair_of.reshape(-1)]
            kept = pair_verdicts[:, 0] == 1
            _count_effects(effects, pair_verdicts[~kept, 1], 0)
            _count_effects(effects, pair_verdicts[kept, 2], 1)
            keep[rows] = kept
            reroutes[rows] = np.where(kept, pair_verdicts[:, 2], -1)
        return batch.take(keep), reroutes[keep], effects

    def _verdict(
        self,
        verdicts: Dict[Tuple, Tuple[bool, int, int]],
        probe,
        provider_code: str,
        view,
        graph_events: Tuple[NetworkEvent, ...],
    ) -> Tuple[bool, int, int]:
        """(keep, blame event id, reroute event id) of one scope.

        Scopes whose table is the baseline object need no per-pair
        verdict at all: every measured pair has a baseline route (the
        planner raises otherwise), and a baseline table proves no
        selected path rides a removed edge, so the verdict is always
        (keep, no reroute).  Only valid while no path is explicitly
        marked down -- down marks are per (isp, network, continent),
        finer than scope.
        """
        key = (provider_code, probe.isp_asn, probe.continent)
        verdict = verdicts.get(key)
        if verdict is not None:
            return verdict
        topology = self._plan.topology
        if not self._policy.down_paths and (
            view.scope_token(provider_code, probe.continent) is None
        ):
            verdict = (True, -1, -1)
        elif (
            self._policy.as_path(
                topology, probe.isp_asn, provider_code, probe.continent
            )
            is None
        ):
            blame = graph_events[0].event_id if graph_events else -1
            verdict = (False, blame, -1)
        else:
            verdict = (
                True,
                -1,
                self._reroute_event(topology, probe, provider_code, graph_events),
            )
        verdicts[key] = verdict
        return verdict

    @staticmethod
    def _reroute_event(
        topology,
        probe,
        provider_code: str,
        graph_events: Tuple[NetworkEvent, ...],
    ) -> int:
        """The lowest-id active event whose downed link the baseline
        route rode, or ``-1`` if the baseline route is unaffected."""
        base = topology.as_path(
            probe.isp_asn, provider_code, probe.continent
        )
        if base is None or len(base) < 2:
            return -1
        path_edges = {
            (min(a, b), max(a, b)) for a, b in zip(base, base[1:])
        }
        for event in graph_events:
            assert event.edge is not None
            a, b = event.edge
            if (min(a, b), max(a, b)) in path_edges:
                return event.event_id
        return -1

    def _journal(
        self,
        timeline: DayTimeline,
        effects: Dict[int, List[int]],
    ) -> None:
        by_id = {event.event_id: event for event in timeline.events}
        for event_id in sorted(effects):
            dropped, rerouted = effects[event_id]
            event = by_id[event_id]
            self._events.append(
                f"{event.label()} dropped={dropped} rerouted={rerouted}"
            )

    # -- batch surface -----------------------------------------------------

    def ping_batch(
        self,
        batch: RequestBatch,
        rng: Optional[np.random.Generator] = None,
    ) -> PingBlock:
        return self._execute(PingBlock, self._inner.ping_batch, batch, rng)

    def traceroute_batch(
        self,
        batch: RequestBatch,
        rng: Optional[np.random.Generator] = None,
    ) -> TraceBlock:
        return self._execute(TraceBlock, self._inner.traceroute_batch, batch, rng)

    def _execute(
        self,
        kind: Type[_Block],
        run: Callable[..., _Block],
        batch: RequestBatch,
        rng: Optional[np.random.Generator],
    ) -> _Block:
        """Run each epoch segment's survivors through ``run``; stamp the
        (epoch, outage id) provenance of every returned row."""
        blocks: List[_Block] = []
        epochs: List[np.ndarray] = [np.empty(0, np.int32)]
        outage_ids: List[np.ndarray] = [np.empty(0, np.int32)]
        try:
            for start, end, day, epoch in self._segments(batch):
                timeline = self._plan.timeline(day)
                view = self._plan.view(timeline.removed_edges(epoch))
                self._policy.set_view(view)
                survivors, reroutes, effects = self._filter_segment(
                    batch[start:end], timeline, epoch, view
                )
                self._journal(timeline, effects)
                if len(survivors):
                    blocks.append(run(survivors, rng=rng))
                    epochs.append(np.full(len(survivors), epoch, np.int32))
                    outage_ids.append(reroutes)
        finally:
            self._policy.set_view(None)
        epoch_column = np.concatenate(epochs)
        outage_column = np.concatenate(outage_ids)
        if len(blocks) == 1:
            block = blocks[0]
            block.epochs = epoch_column
            block.outage_ids = outage_column
            return block
        return _merge_blocks(kind, blocks, epoch_column, outage_column)

    def __repr__(self) -> str:
        return f"NetfaultEngine(plan={self._plan!r})"
