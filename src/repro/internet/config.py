"""Configuration for the simulated IPv6 Internet.

All knobs that shape the ground truth live here, so that experiments and
tests can dial the world size up or down while keeping the generative
rules identical.  The presets:

``tiny``  — unit-test scale (dozens of ASes, sub-second construction)
``bench`` — benchmark scale (120 ASes plus a 20,000-region mega ISP)
``small`` — the full default parameterisation (hundreds of ASes)
``medium``— slower, higher-fidelity runs
``internet`` — hitlist scale (~1M ASes); only usable through the lazy
topology with a resident-AS budget, never via an eager walk
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["InternetConfig"]


@dataclass(frozen=True, slots=True)
class InternetConfig:
    """Tunable parameters of the ground-truth model."""

    master_seed: int = 42

    # Topology size.
    num_ases: int = 500
    min_sites_per_as: int = 1
    max_sites_per_as: int = 5

    # Organisation mix (weights, normalised internally).
    weight_isp: float = 0.34
    weight_mobile: float = 0.08
    weight_cloud: float = 0.1
    weight_hosting: float = 0.14
    weight_cdn: float = 0.05
    weight_education: float = 0.1
    weight_government: float = 0.05
    weight_enterprise: float = 0.1
    weight_security: float = 0.04

    # Region densities (active IIDs per /64), by role.
    server_density_min: int = 40
    server_density_max: int = 260
    cdn_density_min: int = 120
    cdn_density_max: int = 420
    router_density_min: int = 1
    router_density_max: int = 8
    subscriber_density_min: int = 4
    subscriber_density_max: int = 28
    enterprise_density_min: int = 15
    enterprise_density_max: int = 90

    # Aliasing.
    alias_region_fraction: float = 0.035
    rate_limited_alias_fraction: float = 0.3
    rate_limited_alias_response: float = 0.35
    published_alias_coverage: float = 0.65

    # Temporal churn between the collection epoch (0) and scan epoch (1).
    churn_rate_min: float = 0.02
    churn_rate_max: float = 0.10
    subscriber_churn_boost: float = 2.0
    retired_region_fraction: float = 0.15
    # Regions renumbered between collection and scan: their (dense,
    # attractive) seeds are almost entirely dead at scan time — the
    # misleading population behind the paper's RQ1.b effect.
    renumbered_region_fraction: float = 0.30
    renumbered_churn: float = 0.97

    # Routers that appear in traceroutes but never answer probes.
    firewalled_router_fraction: float = 0.35

    # The AS12322 analogue: a mega-ISP whose ``::1``-per-/64 pattern
    # saturates ICMP results (filtered from ICMP metrics, per the paper).
    mega_isp_asn: int = 12322
    mega_isp_regions: int = 30000
    mega_isp_icmp_response: float = 0.35

    # Memory discipline for the lazy topology.  ``max_resident_ases``
    # bounds how many fully-materialised ASes the LRU keeps (None =
    # unbounded, appropriate below internet scale).  A capped world
    # never builds the world-wide probe table, which would pin every
    # region: each batch is probed through a table over its own regions.
    # ``memory_budget_mb`` is the declared peak-heap budget the memory
    # regression test and the internet-scale benchmark enforce.
    max_resident_ases: int | None = None
    memory_budget_mb: int = 4096

    def __post_init__(self) -> None:
        if self.num_ases < 2:
            raise ValueError("num_ases must be at least 2")
        if not 0.0 <= self.alias_region_fraction < 1.0:
            raise ValueError("alias_region_fraction must be in [0, 1)")
        if not 0.0 <= self.published_alias_coverage <= 1.0:
            raise ValueError("published_alias_coverage must be in [0, 1]")
        if self.min_sites_per_as < 1 or self.max_sites_per_as < self.min_sites_per_as:
            raise ValueError("invalid sites-per-AS range")
        if self.max_resident_ases is not None and self.max_resident_ases < 1:
            raise ValueError("max_resident_ases must be positive (or None)")
        if self.memory_budget_mb < 1:
            raise ValueError("memory_budget_mb must be positive")

    # -- presets --------------------------------------------------------

    @classmethod
    def tiny(cls, master_seed: int = 42) -> "InternetConfig":
        """Unit-test scale: a few dozen ASes, builds in milliseconds."""
        return cls(
            master_seed=master_seed,
            num_ases=48,
            max_sites_per_as=3,
            server_density_min=15,
            server_density_max=60,
            cdn_density_min=30,
            cdn_density_max=90,
            enterprise_density_min=8,
            enterprise_density_max=30,
            mega_isp_regions=60,
        )

    @classmethod
    def bench(cls, master_seed: int = 42) -> "InternetConfig":
        """Benchmark scale: large enough for the paper's shapes to be
        stable, small enough that the full table/figure suite runs in
        minutes of pure Python."""
        return cls(
            master_seed=master_seed,
            num_ases=120,
            mega_isp_regions=20000,
            server_density_min=30,
            server_density_max=160,
            cdn_density_min=80,
            cdn_density_max=260,
        )

    @classmethod
    def small(cls, master_seed: int = 42) -> "InternetConfig":
        """Full default parameterisation (slower, higher fidelity)."""
        return cls(master_seed=master_seed)

    @classmethod
    def medium(cls, master_seed: int = 42) -> "InternetConfig":
        """Higher-fidelity scale for longer runs."""
        return cls(master_seed=master_seed, num_ases=1200, mega_isp_regions=60000)

    @classmethod
    def internet(cls, master_seed: int = 42) -> "InternetConfig":
        """Hitlist scale: ~1M ASes, tens of millions of /64 regions.

        Usable only through :class:`~repro.internet.topology.LazyTopology`
        (``SimulatedInternet`` picks it automatically): the resident-AS
        budget keeps ~0.1% of the world materialised at a time, and (like
        any capped world) keeps the world-wide probe table off so no path
        forces a full walk.
        """
        return cls(
            master_seed=master_seed,
            num_ases=1_000_000,
            mega_isp_regions=120_000,
            max_resident_ases=1024,
            memory_budget_mb=2048,
        )

    def with_seed(self, master_seed: int) -> "InternetConfig":
        """A copy with a different master seed (a different world)."""
        return replace(self, master_seed=master_seed)

    @property
    def org_weights(self) -> dict[str, float]:
        """Normalised organisation-type weights."""
        raw = {
            "isp": self.weight_isp,
            "mobile": self.weight_mobile,
            "cloud": self.weight_cloud,
            "hosting": self.weight_hosting,
            "cdn": self.weight_cdn,
            "education": self.weight_education,
            "government": self.weight_government,
            "enterprise": self.weight_enterprise,
            "security": self.weight_security,
        }
        total = sum(raw.values())
        if total <= 0:
            raise ValueError("organisation weights must sum to a positive value")
        return {key: value / total for key, value in raw.items()}
