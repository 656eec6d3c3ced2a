"""Forwarding-path planning.

For a (probe, region) pair the planner resolves the AS-level route from
the probe's serving ISP to the provider's network (scoped policy
routing), classifies the interconnect, expands the route into router-level
hops with addresses and geographic positions, and precomputes the base
(noise-free) RTT profile that the ping and traceroute engines sample
around.
"""

from __future__ import annotations

from enum import Enum
from typing import (
    Any,
    Dict,
    Hashable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.cloud.regions import CloudRegion
from repro.cloud.wan import PrivateWAN
from repro.core.config import SimulationConfig
from repro.core.rng import name_digest
from repro.core.topology import Topology
from repro.core.units import one_way_fiber_ms
from repro.geo.continents import Continent
from repro.geo.coords import EARTH_RADIUS_KM, GeoPoint
from repro.geo.countries import CountryRegistry
from repro.measure.pathpolicy import BASELINE_TOKEN, PathSelectionPolicy
from repro.net.asn import AS, ASKind
from repro.net.ip import parse_ip
from repro.platforms.probe import Probe

#: Home-router LAN-side address seen as the first traceroute hop of a
#: home probe.
HOME_ROUTER_ADDRESS = parse_ip("192.168.1.1")

class InterconnectKind(str, Enum):
    """Ground-truth interconnect class of a forwarding path.

    Matches the categories of the paper's section 6.1: direct peering
    (optionally over a public IXP fabric), private peering via a single
    carrier, and the public Internet (2+ intermediate ASes).
    """

    DIRECT = "direct"
    DIRECT_IXP = "direct_ixp"
    PRIVATE = "private"
    PUBLIC = "public"

    @property
    def is_direct(self) -> bool:
        return self in (InterconnectKind.DIRECT, InterconnectKind.DIRECT_IXP)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class PlannedHop(NamedTuple):
    """A router (or IXP port) hop with its noise-free RTT from the ISP edge.

    A named tuple of atomic fields rather than a dataclass: the planner
    allocates one per router of every planned path, tuple construction
    is several times cheaper, and tuples whose items are all atomic are
    untracked by the garbage collector -- keeping the (large, permanent)
    planner cache out of every gen-2 collection.
    """

    address: int
    asn: Optional[int]
    owner_kind: str
    lat: float
    lon: float
    base_rtt_ms: float
    ixp_id: Optional[int] = None

    @property
    def position(self) -> GeoPoint:
        """The hop's location as a :class:`GeoPoint` (built on demand)."""
        return GeoPoint(self.lat, self.lon)


class PlannedPath(NamedTuple):
    """A frozen view of one planned path: a row of the planner's arena.

    Built on demand by :meth:`PathPlanner.path` (and :meth:`PathPlanner.plan`)
    for analysis code and tests; the batch executors read the arena's
    columns directly.  Hops are parallel tuples of atomic values, ISP
    edge first, endpoint last; :attr:`hops` gives the same hops as
    :class:`PlannedHop` rows.
    """

    probe_id: str
    region_id: str
    provider_code: str
    as_path: Tuple[int, ...]
    interconnect: InterconnectKind
    distance_km: float
    stretch: float
    jitter_sigma: float
    congestion_probability: float
    #: Noise-free RTT from the ISP edge to the endpoint (no last mile).
    base_path_rtt_ms: float
    dest_address: int
    hop_addresses: Tuple[int, ...] = ()
    hop_asns: Tuple[Optional[int], ...] = ()
    hop_kinds: Tuple[str, ...] = ()
    hop_lats: Tuple[float, ...] = ()
    hop_lons: Tuple[float, ...] = ()
    hop_base_rtts: Tuple[float, ...] = ()
    hop_ixp_ids: Tuple[Optional[int], ...] = ()

    @property
    def hops(self) -> Tuple[PlannedHop, ...]:
        """Hops beyond the last mile as :class:`PlannedHop` views."""
        return tuple(
            PlannedHop(*row)
            for row in zip(
                self.hop_addresses,
                self.hop_asns,
                self.hop_kinds,
                self.hop_lats,
                self.hop_lons,
                self.hop_base_rtts,
                self.hop_ixp_ids,
            )
        )

    @property
    def hop_count(self) -> int:
        return len(self.hop_addresses)

    @property
    def intermediate_as_count(self) -> int:
        return max(0, len(self.as_path) - 2)

    def __repr__(self) -> str:
        return (
            f"PlannedPath(probe_id={self.probe_id!r}, "
            f"region_id={self.region_id!r}, hops={self.hop_count})"
        )


#: Interconnect classes by arena code.
INTERCONNECTS: Tuple[InterconnectKind, ...] = tuple(InterconnectKind)
_INTERCONNECT_CODES = {kind: code for code, kind in enumerate(INTERCONNECTS)}
#: Arena ``owner`` of an IXP port hop, which no AS on the path owns.
OWNER_IXP = -1

#: Per-hop arena columns, 29 bytes a hop.  Addresses are IPv4.  ``owner``
#: is the index of the hop's AS in its path's AS path (``OWNER_IXP`` for
#: the IXP port), from which a view derives the hop's ASN, owner kind and
#: IXP id.
HOP_COLUMNS: Dict[str, type] = {
    "address": np.uint32,
    "base_rtt": np.float64,
    "lat": np.float64,
    "lon": np.float64,
    "owner": np.int8,
}
#: Per-path arena columns.  ``meta`` indexes the planner's route metas.
PAIR_COLUMNS: Dict[str, type] = {
    "hop_start": np.int64,
    "hop_count": np.int32,
    "base_path_rtt_ms": np.float64,
    "jitter_sigma": np.float64,
    "congestion_probability": np.float64,
    "dest_address": np.int64,
    "distance_km": np.float64,
    "stretch": np.float64,
    "interconnect": np.int8,
    "meta": np.int32,
}


class ArenaColumns:
    """Named NumPy columns that grow together.

    Attribute access gives a column's filled prefix (a view).  When
    :meth:`reserve` runs out of capacity every column is reallocated at
    (at least) 1.125x its capacity, one column at a time, so appends
    cost amortized O(1), a growth step holds one old column besides the
    new ones, and the slack stays under an eighth of the data.
    """

    def __init__(self, dtypes: Dict[str, type]) -> None:
        self._columns = {name: np.empty(0, dtype) for name, dtype in dtypes.items()}
        self._size = 0
        self._capacity = 0

    def __len__(self) -> int:
        return self._size

    def __getattr__(self, name: str) -> np.ndarray:
        try:
            column = self.__dict__["_columns"][name]
        except KeyError:
            raise AttributeError(name) from None
        filled: np.ndarray = column[: self._size]
        return filled

    def row(self, index: int) -> Dict[str, Any]:
        """Row ``index`` as Python scalars, by column name."""
        if not 0 <= index < self._size:
            raise IndexError(index)
        return {name: column.item(index) for name, column in self._columns.items()}

    def rows(self, start: int, stop: int) -> Dict[str, List[Any]]:
        """Rows ``start:stop`` as Python lists, by column name."""
        stop = min(stop, self._size)
        return {
            name: column[start:stop].tolist() for name, column in self._columns.items()
        }

    def reserve(self, count: int) -> int:
        """Extend every column by ``count`` unset rows; the first new row."""
        start = self._size
        end = start + count
        if end > self._capacity:
            self._capacity = max(end, self._capacity + self._capacity // 8)
            for name, column in self._columns.items():
                grown = np.empty(self._capacity, column.dtype)
                grown[:start] = column[:start]
                self._columns[name] = grown
        self._size = end
        return start


class PlanArena:
    """Every path a planner has planned, as NumPy columns.

    ``pairs`` holds one row per planned path; row ``r``'s hops, ISP edge
    first and endpoint last, are ``hops[hop_start[r]:hop_start[r] +
    hop_count[r]]``; ``interconnect`` indexes :data:`INTERCONNECTS`.
    Rows are never rewritten once appended.
    """

    def __init__(self) -> None:
        self.hops = ArenaColumns(HOP_COLUMNS)
        self.pairs = ArenaColumns(PAIR_COLUMNS)

    def __len__(self) -> int:
        return len(self.pairs)

    def hop_index(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The hop counts of ``rows`` and the hop-column indices of all
        their hops, concatenated in row order."""
        counts = self.pairs.hop_count[rows].astype(np.int64)
        ends = np.cumsum(counts)
        total = int(ends[-1]) if len(ends) else 0
        index = np.arange(total) + np.repeat(
            self.pairs.hop_start[rows] - (ends - counts), counts
        )
        return counts, index


def classify_interconnect(
    as_path: Sequence[int], topology: Topology, provider_code: str
) -> InterconnectKind:
    """Ground-truth interconnect class of an AS path (ISP first)."""
    intermediates = len(as_path) - 2
    if intermediates < 0:
        raise ValueError("AS path must contain at least the ISP and the cloud")
    if intermediates == 0:
        peering = topology.peering_for(provider_code)
        if peering.direct_isps.get(as_path[0]) is not None:
            return InterconnectKind.DIRECT_IXP
        return InterconnectKind.DIRECT
    if intermediates == 1:
        return InterconnectKind.PRIVATE
    return InterconnectKind.PUBLIC


def effective_stretch(
    interconnect: InterconnectKind,
    intermediates: int,
    wan: PrivateWAN,
    source_continent: Continent,
    config: SimulationConfig,
) -> float:
    """Fibre path stretch for an interconnect class.

    Private-WAN engineering only applies when the provider's backbone
    covers the probe's continent and the advantage is enabled (ablation
    knob ``private_wan_advantage``).
    """
    path_config = config.path_model
    on_net = config.private_wan_advantage and wan.covers(source_continent)
    if interconnect.is_direct and on_net:
        return path_config.private_wan_stretch
    if interconnect is InterconnectKind.PRIVATE and on_net:
        return path_config.private_peering_stretch
    extra = max(0, intermediates - 1)
    return path_config.public_stretch + extra * path_config.public_stretch_per_extra_as


def effective_jitter_sigma(
    interconnect: InterconnectKind,
    distance_km: float,
    wan: PrivateWAN,
    source_continent: Continent,
    config: SimulationConfig,
) -> float:
    """Multiplicative RTT jitter sigma for an interconnect class.

    Public paths accumulate queueing variance with distance; private WANs
    keep it flat.  This asymmetry reproduces the paper's Fig. 13b (direct
    peering shrinks latency variation over long Asian paths) without
    materially moving the EU medians of Fig. 12b.
    """
    path_config = config.path_model
    on_net = config.private_wan_advantage and wan.covers(source_continent)
    if interconnect.is_direct and on_net:
        return path_config.private_jitter_sigma
    if interconnect is InterconnectKind.PRIVATE and on_net:
        return 0.5 * (
            path_config.private_jitter_sigma + path_config.public_jitter_sigma
        )
    return (
        path_config.public_jitter_sigma
        + (distance_km / 1000.0) * path_config.public_jitter_sigma_per_1000km
    )


#: Geographic share of the end-to-end path carried by the cloud AS, by
#: interconnect class (ingress locality: direct paths enter the WAN near
#: the user; public paths only near the datacenter).
_CLOUD_GEO_SHARE = {
    InterconnectKind.DIRECT: 0.70,
    InterconnectKind.DIRECT_IXP: 0.70,
    InterconnectKind.PRIVATE: 0.50,
    InterconnectKind.PUBLIC: 0.15,
}

#: An IXP port hop: (IXP id, LAN address, latitude, longitude).
_IxpPort = Tuple[int, int, float, float]


class _RouteMeta(NamedTuple):
    """The route-level prefix of path preparation.

    Every field is a pure function of (serving ISP, probe continent,
    provider, policy token) -- many pairs share one entry, so the planner
    computes routing, interconnect classification, the class stretch and
    the fixed RTT overheads once per route instead of once per (probe,
    region) pair.  ``sigma_base``/``sigma_per_1000km`` linearize
    :func:`effective_jitter_sigma`; the per-pair terms left are the
    great-circle distance, the stretch geography, the endpoint address
    and the RNG draws.
    """

    as_path: Tuple[int, ...]
    interconnect: InterconnectKind
    #: Interconnect-class stretch, before the geography correction.
    stretch: float
    sigma_base: float
    sigma_per_1000km: float
    systems: Tuple[AS, ...]
    cloud_share: float
    fixed_rtt: float
    wan: PrivateWAN
    #: The meta's index in the planner's route metas.
    index: int
    port: Optional[_IxpPort]


class _PathPrep(NamedTuple):
    """Everything about a path that is decided before hop placement.

    The scalar prefix of path building (routing, interconnect class,
    stretch/jitter, per-AS hop counts) stays per-pair Python; hop
    placement itself (fractions, spherical interpolation, base RTTs,
    addresses) runs as one array pass over every prep in a batch.
    """

    probe: Probe
    region: CloudRegion
    #: The pair's route: AS path, interconnect class, the ASes on it,
    #: fixed RTT overheads and IXP port.
    meta: _RouteMeta
    distance: float
    stretch: float
    sigma: float
    counts: List[int]
    total_hops: int
    two_way_fiber: float
    dest_address: int
    #: Generator serving this pair's draws (the shared planner stream in
    #: sequential mode, a per-pair derived generator in pair mode).
    rng: np.random.Generator


class _PlacedHops(NamedTuple):
    """The router hops of a batch of preps, concatenated in prep order
    (no IXP ports, no endpoints); prep ``j`` owns
    ``offsets[j]:offsets[j + 1]``."""

    lats: np.ndarray
    lons: np.ndarray
    base_rtts: np.ndarray
    addresses: np.ndarray
    owners: np.ndarray
    offsets: np.ndarray


class PathPlanner:
    """Plans (probe, region) paths into a :class:`PlanArena`, cached.

    A planned path is an arena row: :meth:`plan_many` returns rows, the
    batch executors gather from :attr:`arena` by row, and
    :meth:`path` / :meth:`plan` build a :class:`PlannedPath` view of a
    row on demand.

    Two randomness disciplines are supported:

    - *sequential* (``rng=...``): all paths draw from one shared stream
      in planning order -- the historical mode, cheapest, but the result
      of a plan depends on every plan that preceded it;
    - *pair-deterministic* (``pair_entropy=...``): every (probe, region)
      pair draws from its own generator derived from the entropy and a
      stable digest of the pair key, so a planned path is a pure function
      of (entropy, probe, region) regardless of planning order.  This is
      what makes checkpointed campaigns resumable: a resumed process
      replans only the remaining units yet produces bit-identical paths.
    """

    def __init__(
        self,
        topology: Topology,
        wans: Dict[str, PrivateWAN],
        region_addresses: Dict[Tuple[str, str], int],
        config: SimulationConfig,
        rng: Optional[np.random.Generator] = None,
        countries: Optional[CountryRegistry] = None,
        pair_entropy: Optional[int] = None,
        legacy_prep: bool = False,
        route_policy: Optional[PathSelectionPolicy] = None,
    ) -> None:
        if rng is None and pair_entropy is None:
            raise ValueError("PathPlanner needs either rng or pair_entropy")
        if legacy_prep and route_policy is not None:
            raise ValueError(
                "legacy_prep is a parity reference and cannot carry a "
                "route policy"
            )
        self._topology = topology
        self._wans = wans
        self._region_addresses = region_addresses
        self._config = config
        self._rng = rng
        self._pair_entropy = pair_entropy
        self._countries = countries
        #: ``True`` pins preparation to the uncached per-pair reference
        #: path (:meth:`_prepare_legacy`) -- the pre-optimization
        #: baseline the full-scale benchmark and parity tests compare
        #: against.  Both modes produce bit-identical preps.
        self._legacy_prep = legacy_prep
        #: Pluggable path selection.  ``None`` (and a policy sitting at
        #: its baseline token) plans exactly like the historical planner
        #: and shares the same cache entries; any other policy state
        #: namespaces the caches by the policy's token, so no entry is
        #: ever invalidated -- planned paths are pure functions of
        #: (pair, token).
        self._route_policy = route_policy
        self._arena = PlanArena()
        #: Pair key -> arena row; keys in row order, for path views.
        self._cache: Dict[Tuple[Hashable, ...], int] = {}
        self._row_keys: List[Tuple[Hashable, ...]] = []
        #: Route metas by index (the arena's ``meta`` column).
        self._metas: List[_RouteMeta] = []
        self._meta_cache: Dict[Tuple[Hashable, ...], _RouteMeta] = {}
        #: Per-scope token memo for the *current* policy state: pair
        #: tokens are pure given (policy token, scope), so the memo is
        #: dropped whenever the policy's cache token changes (epoch view
        #: installed, path marked down/up) and hit on every plan
        #: otherwise.
        self._pair_token_state: Optional[Hashable] = None
        self._pair_token_cache: Dict[
            Tuple[str, Continent], Optional[Hashable]
        ] = {}
        #: Rolling-hash caches for the pair digest: ``name_digest`` is a
        #: linear fold, so the digest of ``"path.<probe>.<prov>.<region>"``
        #: combines a per-probe prefix digest with a per-region suffix in
        #: O(1) instead of re-folding the whole name per pair.
        self._probe_digest: Dict[str, int] = {}
        self._region_digest: Dict[Tuple[str, str], Tuple[int, int]] = {}

    def _pair_generator(
        self, probe: Probe, region: CloudRegion
    ) -> np.random.Generator:
        """The derived generator owning one pair's planning draws.

        Produces the generator seeded from
        ``name_digest(f"path.{probe_id}.{provider}.{region}")`` exactly,
        but assembles the digest from cached prefix/suffix folds.
        """
        prefix = self._probe_digest.get(probe.probe_id)
        if prefix is None:
            prefix = name_digest(f"path.{probe.probe_id}.")
            self._probe_digest[probe.probe_id] = prefix
        region_key = (region.provider_code, region.region_id)
        suffix = self._region_digest.get(region_key)
        if suffix is None:
            tail = f"{region.provider_code}.{region.region_id}"
            suffix = (name_digest(tail), pow(1_000_003, len(tail), 2**63))
            self._region_digest[region_key] = suffix
        digest = (prefix * suffix[1] + suffix[0]) % 2**63
        seq = np.random.SeedSequence(
            entropy=self._pair_entropy, spawn_key=(digest,)
        )
        return np.random.default_rng(seq)

    # -- path selection policy ---------------------------------------------

    @property
    def route_policy(self) -> Optional[PathSelectionPolicy]:
        return self._route_policy

    def _policy_token(self) -> Optional[Hashable]:
        """The cache namespace of the current policy state.

        ``None`` -- no policy, or a policy at its baseline token -- means
        "plan exactly like the policy-free planner" and uses the bare
        historical cache keys, so static runs and event-free epochs share
        one cache population.
        """
        if self._route_policy is None:
            return None
        token = self._route_policy.cache_token()
        if token is BASELINE_TOKEN or token == BASELINE_TOKEN:
            return None
        return token

    def _pair_token(
        self, provider_code: str, source_continent: Continent
    ) -> Optional[Hashable]:
        """The cache namespace of one (provider, source continent) scope.

        Finer-grained than :meth:`_policy_token`: a policy that knows an
        epoch's events never touched this scope's routes (see
        :meth:`~repro.measure.pathpolicy.PathSelectionPolicy.pair_token`)
        returns ``None``, and the pair plans against -- and shares cache
        entries with -- the bare policy-free keys.  Cached entries are
        interchangeable because a ``None`` token certifies the scope's
        routing table *is* the baseline table.
        """
        policy = self._route_policy
        if policy is None:
            return None
        state = policy.cache_token()
        if state is not self._pair_token_state:
            if state != self._pair_token_state:
                self._pair_token_cache = {}
            self._pair_token_state = state
        scope = (provider_code, source_continent)
        try:
            return self._pair_token_cache[scope]
        except KeyError:
            token = policy.pair_token(
                self._topology, provider_code, source_continent
            )
            self._pair_token_cache[scope] = token
            return token

    def _ensure_policy(self) -> PathSelectionPolicy:
        if self._route_policy is None:
            if self._legacy_prep:
                raise RuntimeError(
                    "legacy_prep planners cannot install a route policy"
                )
            self._route_policy = PathSelectionPolicy()
        return self._route_policy

    def mark_path_down(
        self, isp_asn: int, provider_code: str, source_continent: Continent
    ) -> None:
        """Mark one (ISP, provider network, continent) path down.

        Installs the default policy on first use; subsequent plans for
        the affected triple select the policy's alternate (or fail) and
        every other plan is untouched -- caches are namespaced by the
        policy token, never invalidated.
        """
        policy = self._ensure_policy()
        policy.mark_path_down(
            policy.path_key(
                self._topology, isp_asn, provider_code, source_continent
            )
        )

    def mark_path_up(
        self, isp_asn: int, provider_code: str, source_continent: Continent
    ) -> None:
        """Restore a path marked down via :meth:`mark_path_down`."""
        policy = self._ensure_policy()
        policy.mark_path_up(
            policy.path_key(
                self._topology, isp_asn, provider_code, source_continent
            )
        )

    @property
    def arena(self) -> PlanArena:
        """Every planned path, as columns indexed by arena row."""
        return self._arena

    def plan(self, probe: Probe, region: CloudRegion) -> PlannedPath:
        """The planned path for a (probe, region) pair (cached), as a view."""
        return self.path(int(self.plan_many([(probe, region)])[0]))

    def path(self, row: int) -> PlannedPath:
        """A frozen :class:`PlannedPath` view of one arena row."""
        pair = self._arena.pairs.row(row)
        start = pair["hop_start"]
        hops = self._arena.hops.rows(start, start + pair["hop_count"])
        meta = self._metas[pair["meta"]]
        as_path = meta.as_path
        kinds = [str(system.kind) for system in meta.systems]
        ixp_id = meta.port[0] if meta.port else None
        owners = hops["owner"]
        probe_id, provider_code, region_id = self._row_keys[row][:3]
        return PlannedPath(
            probe_id=str(probe_id),
            region_id=str(region_id),
            provider_code=str(provider_code),
            as_path=as_path,
            interconnect=INTERCONNECTS[pair["interconnect"]],
            distance_km=pair["distance_km"],
            stretch=pair["stretch"],
            jitter_sigma=pair["jitter_sigma"],
            congestion_probability=pair["congestion_probability"],
            base_path_rtt_ms=pair["base_path_rtt_ms"],
            dest_address=pair["dest_address"],
            hop_addresses=tuple(hops["address"]),
            hop_asns=tuple(
                None if owner == OWNER_IXP else as_path[owner] for owner in owners
            ),
            hop_kinds=tuple(
                "ixp" if owner == OWNER_IXP else kinds[owner] for owner in owners
            ),
            hop_lats=tuple(hops["lat"]),
            hop_lons=tuple(hops["lon"]),
            hop_base_rtts=tuple(hops["base_rtt"]),
            hop_ixp_ids=tuple(
                ixp_id if owner == OWNER_IXP else None for owner in owners
            ),
        )

    def plan_many(self, pairs: Sequence[Tuple[Probe, CloudRegion]]) -> np.ndarray:
        """The arena rows of many (probe, region) pairs, planned at once.

        Cache hits return their row directly; every miss in the batch
        shares one vectorized hop-placement pass (fractions, spherical
        interpolation, base RTTs, and hop addresses are single array
        expressions across all new paths) that writes the new rows
        straight into the arena, so a cold campaign day pays array setup
        once rather than per pair.
        """
        rows: List[int] = [0] * len(pairs)
        keys: List[Tuple[Hashable, ...]] = [()] * len(pairs)
        tokens: List[Optional[Hashable]] = [None] * len(pairs)
        misses: List[int] = []
        cache = self._cache
        policy = self._route_policy
        scope_tokens: Dict[Tuple[str, Continent], Optional[Hashable]] = {}
        # Cache probing is per-pair by design: dict hits cost ~100ns and
        # keep the RNG draw order identical to planning pair by pair.
        for i, (probe, region) in enumerate(pairs):  # repro-lint: disable=PERF001
            key: Tuple[Hashable, ...] = (
                probe.probe_id,
                region.provider_code,
                region.region_id,
            )
            if policy is not None:
                scope = (region.provider_code, probe.continent)
                try:
                    token = scope_tokens[scope]
                except KeyError:
                    token = self._pair_token(*scope)
                    scope_tokens[scope] = token
                if token is not None:
                    key = key + (token,)
                    tokens[i] = token
            cached = cache.get(key)
            if cached is not None:
                rows[i] = cached
            else:
                keys[i] = key
                misses.append(i)
        if misses:
            # Dedup repeats inside the batch, preserving first-seen order
            # so the RNG draw sequence depends only on the request
            # sequence.
            first_seen: Dict[Tuple[Hashable, ...], int] = {}
            unique: List[int] = []
            for i in misses:
                if keys[i] not in first_seen:
                    first_seen[keys[i]] = len(unique)
                    unique.append(i)
            preps = [
                self._prepare(pairs[i][0], pairs[i][1], tokens[i])
                for i in unique
            ]
            first = self._append(preps)
            for key, j in first_seen.items():
                cache[key] = first + j
            self._row_keys.extend(first_seen)
            for i in misses:
                rows[i] = first + first_seen[keys[i]]
        return np.array(rows, np.int64)

    def _route_meta(
        self,
        probe: Probe,
        region: CloudRegion,
        token: Optional[Hashable],
    ) -> _RouteMeta:
        """The shared route-level prefix of preparation, cached.

        ``token`` is the pair's scope token (see :meth:`_pair_token`),
        already resolved by the caller so the hot path never re-derives
        it per pair.
        """
        key: Tuple[Hashable, ...] = (
            probe.isp_asn,
            probe.continent,
            region.provider_code,
        )
        if token is not None:
            key = key + (token,)
        meta = self._meta_cache.get(key)
        if meta is not None:
            return meta
        topology = self._topology
        provider_code = region.provider_code
        network = topology.network_code(provider_code)
        if token is None:
            as_path = topology.as_path(
                probe.isp_asn, provider_code, probe.continent
            )
        else:
            assert self._route_policy is not None
            as_path = self._route_policy.as_path(
                topology, probe.isp_asn, provider_code, probe.continent
            )
        if as_path is None:
            raise RuntimeError(
                f"no route from AS{probe.isp_asn} to provider {provider_code}"
            )
        interconnect = classify_interconnect(as_path, topology, provider_code)
        wan = self._wans[network]
        path_config = self._config.path_model
        # Linearized effective_jitter_sigma: base + (distance/1000) * slope
        # evaluates to bit-identical floats for every interconnect class
        # (the on-net classes have slope 0, and x + 0.0 == x).
        on_net = self._config.private_wan_advantage and wan.covers(
            probe.continent
        )
        if interconnect.is_direct and on_net:
            sigma_base, sigma_slope = path_config.private_jitter_sigma, 0.0
        elif interconnect is InterconnectKind.PRIVATE and on_net:
            sigma_base = 0.5 * (
                path_config.private_jitter_sigma
                + path_config.public_jitter_sigma
            )
            sigma_slope = 0.0
        else:
            sigma_base = path_config.public_jitter_sigma
            sigma_slope = path_config.public_jitter_sigma_per_1000km
        intermediates = max(0, len(as_path) - 2)
        registry = topology.registry
        meta = _RouteMeta(
            as_path=tuple(as_path),
            interconnect=interconnect,
            stretch=effective_stretch(
                interconnect, intermediates, wan, probe.continent, self._config
            ),
            sigma_base=sigma_base,
            sigma_per_1000km=sigma_slope,
            systems=tuple(registry.get(asn) for asn in as_path),
            cloud_share=_CLOUD_GEO_SHARE[interconnect],
            fixed_rtt=(
                path_config.isp_core_rtt_ms
                + intermediates * path_config.per_intermediate_as_rtt_ms
            ),
            wan=wan,
            index=len(self._metas),
            port=self._ixp_port(interconnect, as_path[0], provider_code),
        )
        self._metas.append(meta)
        self._meta_cache[key] = meta
        return meta

    def _ixp_port(
        self, interconnect: InterconnectKind, isp_asn: int, provider_code: str
    ) -> Optional[_IxpPort]:
        """The IXP port hop of a direct session over a public exchange
        fabric (``None`` unless the path is DIRECT_IXP)."""
        if interconnect is not InterconnectKind.DIRECT_IXP:
            return None
        peering = self._topology.peering_for(provider_code)
        ixp_id = peering.direct_isps.get(isp_asn)
        if ixp_id is None:
            return None
        ixp = self._topology.ixps.get(ixp_id)
        address = ixp.lan_address_for(peering.cloud_asn)
        return (ixp_id, address, ixp.location.lat, ixp.location.lon)

    def _prepare(
        self,
        probe: Probe,
        region: CloudRegion,
        token: Optional[Hashable],
    ) -> _PathPrep:
        """The scalar (per-pair) prefix of path building.

        Routing, classification, the class stretch and fixed overheads
        come from the :meth:`_route_meta` cache; the great-circle
        distance, the stretch geography, the distance-dependent jitter
        sigma, the endpoint address and the RNG draws remain per pair.
        ``token`` is the caller-resolved scope token (``None`` for
        baseline planning).  Produces preps bit-identical to
        :meth:`_prepare_legacy` with an identical draw sequence.
        """
        if self._legacy_prep:
            return self._prepare_legacy(probe, region)
        meta = self._route_meta(probe, region, token)
        distance = probe.location.distance_km(region.location)
        stretch = self._adjust_stretch_for_geography(
            meta.stretch, probe, region, meta.wan
        )
        sigma = meta.sigma_base + (distance / 1000.0) * meta.sigma_per_1000km
        if self._pair_entropy is not None:
            pair_rng = self._pair_generator(probe, region)
        else:
            assert self._rng is not None
            pair_rng = self._rng
        counts = _hop_counts(meta.systems, meta.cloud_share, pair_rng)
        return _PathPrep(
            probe=probe,
            region=region,
            meta=meta,
            distance=distance,
            stretch=stretch,
            sigma=sigma,
            counts=counts,
            total_hops=sum(counts),
            two_way_fiber=2.0 * one_way_fiber_ms(distance, stretch),
            dest_address=self._region_addresses[
                (region.provider_code, region.region_id)
            ],
            rng=pair_rng,
        )

    def _prepare_legacy(self, probe: Probe, region: CloudRegion) -> _PathPrep:
        """The original uncached per-pair preparation (parity reference)."""
        topology = self._topology
        provider_code = region.provider_code
        network = topology.network_code(provider_code)
        as_path = topology.as_path(probe.isp_asn, provider_code, probe.continent)
        if as_path is None:
            raise RuntimeError(
                f"no route from AS{probe.isp_asn} to provider {provider_code}"
            )
        interconnect = classify_interconnect(as_path, topology, provider_code)
        wan = self._wans[network]
        distance = probe.location.distance_km(region.location)
        stretch = effective_stretch(
            interconnect, len(as_path) - 2, wan, probe.continent, self._config
        )
        stretch = self._adjust_stretch_for_geography(stretch, probe, region, wan)
        sigma = effective_jitter_sigma(
            interconnect, distance, wan, probe.continent, self._config
        )
        path_config = self._config.path_model
        intermediates = max(0, len(as_path) - 2)
        # Fixed (distance-independent) overheads: the serving ISP's
        # aggregation core, plus detours at every inter-domain handoff.
        fixed_rtt = (
            path_config.isp_core_rtt_ms
            + intermediates * path_config.per_intermediate_as_rtt_ms
        )
        # Hop counts per AS.  The cloud AS carries a geography share that
        # depends on ingress locality; the remainder splits evenly.
        registry = topology.registry
        cloud_share = _CLOUD_GEO_SHARE[interconnect]
        systems = [registry.get(asn) for asn in as_path]
        if self._pair_entropy is not None:
            pair_rng = self._pair_generator(probe, region)
        else:
            assert self._rng is not None
            pair_rng = self._rng
        counts = _hop_counts(systems, cloud_share, pair_rng)
        # Uncached: every legacy pair gets its own route meta, built from
        # the values computed above (its sigma fields hold the pair's
        # own sigma).
        meta = _RouteMeta(
            as_path=tuple(as_path),
            interconnect=interconnect,
            stretch=stretch,
            sigma_base=sigma,
            sigma_per_1000km=0.0,
            systems=tuple(systems),
            cloud_share=cloud_share,
            fixed_rtt=fixed_rtt,
            wan=wan,
            index=len(self._metas),
            port=self._ixp_port(interconnect, as_path[0], provider_code),
        )
        self._metas.append(meta)
        return _PathPrep(
            probe=probe,
            region=region,
            meta=meta,
            distance=distance,
            stretch=stretch,
            sigma=sigma,
            counts=counts,
            total_hops=sum(counts),
            two_way_fiber=2.0 * one_way_fiber_ms(distance, stretch),
            dest_address=self._region_addresses[
                (provider_code, region.region_id)
            ],
            rng=pair_rng,
        )

    def _place_hops(self, preps: Sequence[_PathPrep]) -> _PlacedHops:
        """Place every router hop of every prep in one vectorized pass.

        Fractions along each great circle, spherical interpolation, the
        linear noise-free RTT profile, hop addresses and owners are all
        plain array expressions over the concatenated hops of the whole
        batch.
        """
        path_config = self._config.path_model
        n_hops = np.array([prep.total_hops for prep in preps], dtype=np.int64)
        offsets = np.zeros(len(preps) + 1, dtype=np.int64)
        np.cumsum(n_hops, out=offsets[1:])
        total = int(offsets[-1])
        path_of = np.repeat(np.arange(len(preps)), n_hops)
        ordinals = (
            np.arange(1, total + 1, dtype=np.float64)
            - offsets[:-1][path_of]
        )
        fractions = ordinals / (n_hops + 1.0)[path_of]

        # Spherical interpolation across all paths at once.  The common
        # 1/sin(delta) slerp factor cancels inside atan2 and is skipped;
        # delta is floored at 1e-9 rad so coincident endpoints degrade to
        # the endpoint itself instead of 0/0.
        lat1 = np.radians([prep.probe.location.lat for prep in preps])
        lon1 = np.radians([prep.probe.location.lon for prep in preps])
        lat2 = np.radians([prep.region.location.lat for prep in preps])
        lon2 = np.radians([prep.region.location.lon for prep in preps])
        delta = np.maximum(
            np.array([prep.distance for prep in preps]) / EARTH_RADIUS_KM,
            1e-9,
        )
        cos1 = np.cos(lat1)
        cos2 = np.cos(lat2)
        scaled = fractions * delta[path_of]
        s1 = np.sin(delta[path_of] - scaled)
        s2 = np.sin(scaled)
        x = s1 * (cos1 * np.cos(lon1))[path_of] + s2 * (cos2 * np.cos(lon2))[path_of]
        y = s1 * (cos1 * np.sin(lon1))[path_of] + s2 * (cos2 * np.sin(lon2))[path_of]
        z = s1 * np.sin(lat1)[path_of] + s2 * np.sin(lat2)[path_of]
        lats = np.degrees(np.arctan2(z, np.hypot(x, y)))
        lons = np.degrees(np.arctan2(y, x))

        # Noise-free RTT profile: linear in the path fraction plus per-hop
        # processing, shared minimum, and the fixed overheads.
        grows = np.array(
            [prep.two_way_fiber + prep.meta.fixed_rtt for prep in preps]
        )
        base_rtts = (
            grows[path_of] * fractions
            + ordinals * path_config.hop_processing_ms
            + path_config.min_path_rtt_ms
        )

        # One uniform draw covers every hop's address offset; each hop's
        # offset maps onto [16, prefix.size - 16) inside its owner's
        # prefix, matching the old per-AS integer draws in distribution.
        systems = [
            (count, system.prefixes[0], owner)
            for prep in preps
            for owner, (system, count) in enumerate(
                zip(prep.meta.systems, prep.counts)
            )
        ]
        as_counts = [count for count, _, _ in systems]
        spans = np.repeat(
            np.array([prefix.size - 32 for _, prefix, _ in systems], np.float64),
            as_counts,
        )
        bases = np.repeat(
            np.array([prefix.base for _, prefix, _ in systems], np.int64),
            as_counts,
        )
        if self._pair_entropy is None:
            assert self._rng is not None
            draws = self._rng.random(total)
        else:
            # Pair mode: each prep's address draws come from its own
            # generator (which already served its hop counts), keeping
            # the planned path independent of batch composition.
            draws = np.concatenate(
                [prep.rng.random(prep.total_hops) for prep in preps]
            )
        addresses = bases + 16 + (draws * spans).astype(np.int64)
        owners = np.repeat(
            np.array([owner for _, _, owner in systems], np.int8), as_counts
        )
        return _PlacedHops(lats, lons, base_rtts, addresses, owners, offsets)

    def _append(self, preps: Sequence[_PathPrep]) -> int:
        """Plan ``preps`` into consecutive new arena rows; the first row.

        Each path's hops are its router hops, with the IXP port of a
        DIRECT_IXP path inserted after the ISP's hops (at the RTT of the
        hop it precedes), then the destination endpoint (the VM).
        """
        path_config = self._config.path_model
        placed = self._place_hops(preps)
        n = len(preps)
        offsets = placed.offsets
        n_hops = np.diff(offsets)
        ported = [j for j, prep in enumerate(preps) if prep.meta.port is not None]
        port_at = np.array([preps[j].counts[0] for j in ported], np.int64)
        sizes = n_hops + 1
        sizes[ported] += 1
        ends = np.cumsum(sizes)
        hops = self._arena.hops
        starts = hops.reserve(int(ends[-1])) + ends - sizes

        # Router hops shift one slot past the IXP port.
        insert_at = np.full(n, np.iinfo(np.int64).max)
        insert_at[ported] = port_at
        path_of = np.repeat(np.arange(n), n_hops)
        local = np.arange(len(path_of)) - offsets[:-1][path_of]
        slots = starts[path_of] + local + (local >= insert_at[path_of])
        hops.address[slots] = placed.addresses
        hops.base_rtt[slots] = placed.base_rtts
        hops.lat[slots] = placed.lats
        hops.lon[slots] = placed.lons
        hops.owner[slots] = placed.owners

        if ported:
            ports = [preps[j].meta.port for j in ported]
            slots = starts[ported] + port_at
            neighbors = offsets[ported] + np.minimum(port_at, n_hops[ported] - 1)
            hops.address[slots] = [port[1] for port in ports]
            hops.base_rtt[slots] = placed.base_rtts[neighbors]
            hops.lat[slots] = [port[2] for port in ports]
            hops.lon[slots] = [port[3] for port in ports]
            hops.owner[slots] = OWNER_IXP

        base_path_rtt = (
            np.array([prep.two_way_fiber for prep in preps])
            + (n_hops + 1) * path_config.hop_processing_ms
            + path_config.min_path_rtt_ms
            + np.array([prep.meta.fixed_rtt for prep in preps])
        )
        dest_addresses = [prep.dest_address for prep in preps]
        slots = starts + sizes - 1
        hops.address[slots] = dest_addresses
        hops.base_rtt[slots] = base_path_rtt
        hops.lat[slots] = [prep.region.location.lat for prep in preps]
        hops.lon[slots] = [prep.region.location.lon for prep in preps]
        hops.owner[slots] = [len(prep.meta.as_path) - 1 for prep in preps]

        interconnects = np.array(
            [_INTERCONNECT_CODES[prep.meta.interconnect] for prep in preps], np.int8
        )
        congestion = path_config.congestion_probability
        pairs = self._arena.pairs
        first = pairs.reserve(n)
        rows = slice(first, first + n)
        pairs.hop_start[rows] = starts
        pairs.hop_count[rows] = sizes
        pairs.base_path_rtt_ms[rows] = base_path_rtt
        pairs.jitter_sigma[rows] = [prep.sigma for prep in preps]
        pairs.congestion_probability[rows] = np.where(
            interconnects == _INTERCONNECT_CODES[InterconnectKind.PUBLIC],
            congestion,
            congestion * 0.25,
        )
        pairs.dest_address[rows] = dest_addresses
        pairs.distance_km[rows] = [prep.distance for prep in preps]
        pairs.stretch[rows] = [prep.stretch for prep in preps]
        pairs.interconnect[rows] = interconnects
        pairs.meta[rows] = [prep.meta.index for prep in preps]
        return first

    def _adjust_stretch_for_geography(
        self, stretch: float, probe: Probe, region: CloudRegion, wan: PrivateWAN
    ) -> float:
        """Geography corrections to the interconnect-class stretch.

        Submarine-constrained routes (island endpoint or cross-continent)
        cap the private-WAN advantage: everyone rides the same cables.
        Cross-country paths inside under-provisioned continents pick up a
        terrestrial backhaul penalty (intra-African detours via Europe).
        """
        path_config = self._config.path_model
        src_island = dst_island = False
        if self._countries is not None:
            src = self._countries.find(probe.country)
            dst = self._countries.find(region.country)
            src_island = src.island if src else False
            dst_island = dst.island if dst else False
        submarine = (
            src_island
            or dst_island
            or probe.continent is not region.continent
        )
        if submarine:
            stretch = max(stretch, path_config.submarine_private_stretch_floor)
        if (
            probe.continent is region.continent
            and probe.country != region.country
        ):
            stretch *= path_config.continent_backhaul_stretch.get(
                probe.continent.value, 1.0
            )
        return stretch

def _hop_counts(
    systems: Sequence[AS], cloud_share: float, rng: np.random.Generator
) -> List[int]:
    """Routers exposed by each AS on a path (more when an AS carries
    more of the geographic distance).

    Cloud WANs that ingress near the user expose their internal backbone
    routers along most of the path, which is what drives the >60%
    pervasiveness of hypergiants in the paper's Fig. 11.  One uniform
    draw covers the whole path; ``lo + floor(u * (hi - lo))`` reproduces
    the per-AS ``rng.integers(lo, hi)`` distribution.
    """
    other_share = (1.0 - cloud_share) / max(1, len(systems) - 1)
    draws = rng.random(len(systems)).tolist()
    counts: List[int] = []
    for draw, autonomous_system in zip(draws, systems):
        if autonomous_system.kind is ASKind.CLOUD:
            share = max(0.0, min(1.0, cloud_share))
            base = 2 + int(draw * 3.0)
            extra = int(round(5 * share))
        elif autonomous_system.kind is ASKind.ACCESS:
            share = max(0.0, min(1.0, other_share))
            base = 2 + int(draw * 2.0)
            extra = int(round(3 * share))
        else:
            share = max(0.0, min(1.0, other_share))
            base = 2 + int(draw * 3.0)
            extra = int(round(3 * share))
        counts.append(base + extra)
    return counts
