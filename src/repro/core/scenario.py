"""Scenario builders: construct a complete :class:`~repro.core.world.World`."""

from __future__ import annotations

import gc
from dataclasses import replace
from typing import Dict, Optional, Tuple

from repro.cloud.providers import PROVIDERS, network_operator
from repro.cloud.regions import REGIONS, RegionCatalog
from repro.cloud.wan import PrivateWAN
from repro.core.config import SimulationConfig
from repro.core.rng import RngStreams
from repro.core.topology import Topology, build_topology
from repro.core.world import World
from repro.geo.countries import CountryRegistry, default_registry
from repro.platforms.atlas import AtlasPlatform
from repro.platforms.deployment import deploy_probes
from repro.platforms.speedchecker import SpeedcheckerPlatform

#: Addresses reserved per region inside the cloud AS prefix; region
#: endpoints are spaced this far apart so VM addresses never collide.
_REGION_ADDRESS_STRIDE = 2048


def build_world(
    seed: int = 7,
    scale: float = 0.02,
    config: Optional[SimulationConfig] = None,
    countries: Optional[CountryRegistry] = None,
) -> World:
    """Build the default study world.

    ``scale`` multiplies fleet sizes and quotas; 1.0 reproduces the
    paper's 115k-probe deployment, the default keeps everything
    laptop-sized while preserving every distributional shape.
    """
    if config is None:
        config = SimulationConfig(seed=seed, scale=scale)
    elif seed != config.seed or scale != config.scale:
        config = replace(config, seed=seed, scale=scale)
    registry = countries or default_registry()
    rngs = RngStreams(config.seed)

    topology = build_topology(registry, config, rngs)
    catalog = RegionCatalog(REGIONS)
    wans: Dict[str, PrivateWAN] = {}
    for provider in PROVIDERS:
        if provider.owns_network:
            wans[provider.code] = PrivateWAN.for_provider(provider)

    region_addresses = _assign_region_addresses(topology, catalog)

    speedchecker_probes = deploy_probes(
        "speedchecker",
        config.scaled(config.platforms.speedchecker_total_probes, minimum=200),
        registry,
        topology.registry,
        config,
        rngs.stream("deploy.speedchecker"),
    )
    atlas_probes = deploy_probes(
        "atlas",
        config.scaled(config.platforms.atlas_total_probes, minimum=100),
        registry,
        topology.registry,
        config,
        rngs.stream("deploy.atlas"),
    )

    world = World(
        config=config,
        rngs=rngs,
        countries=registry,
        topology=topology,
        catalog=catalog,
        providers=PROVIDERS,
        wans=wans,
        speedchecker=SpeedcheckerPlatform(speedchecker_probes, config),
        atlas=AtlasPlatform(atlas_probes),
        region_addresses=region_addresses,
    )
    # The world's object graph (topology, probe fleets, routing inputs)
    # is static for its whole lifetime but large enough that every gen-2
    # garbage collection afterwards spends milliseconds re-traversing
    # it.  Park it in the collector's permanent generation -- after a
    # full collect so no garbage is frozen along with it.
    gc.collect()
    gc.freeze()
    return world


def _assign_region_addresses(
    topology: Topology, catalog: RegionCatalog
) -> Dict[Tuple[str, str], int]:
    """One VM endpoint address per region, inside the operator's prefix.

    Regions of offerings that share a network (Amazon EC2 and Lightsail)
    draw from the same prefix with a shared index space.
    """
    addresses: Dict[Tuple[str, str], int] = {}
    next_index: Dict[str, int] = {}
    for region in catalog:
        network = network_operator(region.provider_code).code
        cloud_as = topology.registry.cloud_for_provider(network)
        prefix = cloud_as.prefixes[0]
        index = next_index.get(network, 0)
        next_index[network] = index + 1
        offset = (index + 1) * _REGION_ADDRESS_STRIDE + 10
        if offset >= prefix.size:
            raise RuntimeError(
                f"cloud prefix {prefix} too small for region index {index}"
            )
        addresses[(region.provider_code, region.region_id)] = prefix.address_at(
            offset
        )
    return addresses
