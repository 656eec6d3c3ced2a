"""Tuple-assembled planned paths: the oracle for the planner's arena.

:class:`TuplePlanner` plans pairs the way :class:`PathPlanner` did
before planned paths became arena rows.  It probes its own cache pair by
pair, prepares each batch's misses in first-seen order, places their
router hops in one :meth:`PathPlanner._place_hops` pass, and then
assembles each path's seven hop columns as Python tuples, inserting the
IXP port and appending the endpoint one list operation at a time.  Run
on a planner that sees the same batches, every
:meth:`PathPlanner.path` view must equal the oracle's path field for
field.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.cloud.regions import CloudRegion
from repro.measure.path import InterconnectKind, PathPlanner, PlannedPath
from repro.net.asn import ASKind
from repro.platforms.probe import Probe

HopLists = Tuple[List[float], List[float], List[float], List[int]]


class TuplePlanner:
    """Plans through ``planner``'s preparation and hop placement, with
    per-pair tuple assembly and its own cache of :class:`PlannedPath`."""

    def __init__(self, planner: PathPlanner) -> None:
        self._planner = planner
        self._cache: Dict[Tuple[Hashable, ...], PlannedPath] = {}

    def plan_many(
        self, pairs: Sequence[Tuple[Probe, CloudRegion]]
    ) -> List[PlannedPath]:
        planner = self._planner
        keys: List[Tuple[Hashable, ...]] = []
        tokens: List[Optional[Hashable]] = []
        for probe, region in pairs:
            token = planner._pair_token(region.provider_code, probe.continent)
            key: Tuple[Hashable, ...] = (
                probe.probe_id,
                region.provider_code,
                region.region_id,
            )
            keys.append(key if token is None else key + (token,))
            tokens.append(token)
        unique: Dict[Tuple[Hashable, ...], int] = {}
        for i, key in enumerate(keys):
            if key not in self._cache and key not in unique:
                unique[key] = i
        if unique:
            preps = [
                planner._prepare(pairs[i][0], pairs[i][1], tokens[i])
                for i in unique.values()
            ]
            placed = planner._place_hops(preps)
            lists = (
                placed.lats.tolist(),
                placed.lons.tolist(),
                placed.base_rtts.tolist(),
                placed.addresses.tolist(),
            )
            offsets = placed.offsets.tolist()
            for key, prep, start in zip(unique, preps, offsets):
                columns, base_rtt = assemble(planner, prep, lists, start)
                self._cache[key] = finalize(planner, prep, columns, base_rtt)
        return [self._cache[key] for key in keys]


def assemble(
    planner: PathPlanner, prep, lists: HopLists, start: int
) -> Tuple[tuple, float]:
    """One prep's hop columns, as tuples, and its base path RTT."""
    path_config = planner._config.path_model
    lat_list, lon_list, rtt_list, addr_list = lists
    total = prep.total_hops
    end = start + total
    addresses = addr_list[start:end]
    lats = lat_list[start:end]
    lons = lon_list[start:end]
    rtts = rtt_list[start:end]
    asns: List[Optional[int]] = []
    kinds: List[str] = []
    for autonomous_system, count in zip(prep.meta.systems, prep.counts):
        asns.extend((autonomous_system.asn,) * count)
        kinds.extend((str(autonomous_system.kind),) * count)
    ixp_ids: List[Optional[int]] = [None] * total
    # IXP port hop between the ISP hops and the cloud hops for direct
    # sessions over a public exchange fabric.
    if prep.meta.interconnect is InterconnectKind.DIRECT_IXP:
        topology = planner._topology
        peering = topology.peering_for(prep.region.provider_code)
        ixp_id = peering.direct_isps.get(prep.meta.as_path[0])
        if ixp_id is not None:
            ixp = topology.ixps.get(ixp_id)
            insert_at = prep.counts[0]
            neighbor_rtt = rtts[min(insert_at, total - 1)]
            addresses.insert(insert_at, ixp.lan_address_for(peering.cloud_asn))
            asns.insert(insert_at, None)
            kinds.insert(insert_at, "ixp")
            lats.insert(insert_at, ixp.location.lat)
            lons.insert(insert_at, ixp.location.lon)
            rtts.insert(insert_at, neighbor_rtt)
            ixp_ids.insert(insert_at, ixp_id)

    # Destination endpoint hop (the VM).
    base_path_rtt = (
        prep.two_way_fiber
        + (total + 1) * path_config.hop_processing_ms
        + path_config.min_path_rtt_ms
        + prep.meta.fixed_rtt
    )
    location = prep.region.location
    addresses.append(prep.dest_address)
    asns.append(prep.meta.as_path[-1])
    kinds.append(str(ASKind.CLOUD))
    lats.append(location.lat)
    lons.append(location.lon)
    rtts.append(base_path_rtt)
    ixp_ids.append(None)
    columns = (
        tuple(addresses),
        tuple(asns),
        tuple(kinds),
        tuple(lats),
        tuple(lons),
        tuple(rtts),
        tuple(ixp_ids),
    )
    return columns, base_path_rtt


def finalize(
    planner: PathPlanner, prep, columns: tuple, base_rtt: float
) -> PlannedPath:
    """The :class:`PlannedPath` of one prep and its assembled columns."""
    path_config = planner._config.path_model
    congestion = (
        path_config.congestion_probability
        if prep.meta.interconnect is InterconnectKind.PUBLIC
        else path_config.congestion_probability * 0.25
    )
    return PlannedPath(
        probe_id=prep.probe.probe_id,
        region_id=prep.region.region_id,
        provider_code=prep.region.provider_code,
        as_path=tuple(prep.meta.as_path),
        interconnect=prep.meta.interconnect,
        distance_km=prep.distance,
        stretch=prep.stretch,
        jitter_sigma=prep.sigma,
        congestion_probability=congestion,
        base_path_rtt_ms=base_rtt,
        dest_address=prep.dest_address,
        hop_addresses=columns[0],
        hop_asns=columns[1],
        hop_kinds=columns[2],
        hop_lats=columns[3],
        hop_lons=columns[4],
        hop_base_rtts=columns[5],
        hop_ixp_ids=columns[6],
    )
