"""The generation-and-scan run loop.

One *run* reproduces the paper's per-cell methodology: a TGA generates a
budget of fresh addresses from a seed dataset, each round is scanned on
the target port (feeding online generators their adaptation signal), and
the final output is dealiased (offline published list + online /96
verification) before computing hits, active ASes and aliases — with
AS12322-analogue filtering on ICMP.
"""

from __future__ import annotations

from ..addr.rand import hash64
from ..datasets import SeedDataset
from ..dealias import OfflineDealiaser, OnlineDealiaser
from ..internet import Port, SimulatedInternet
from ..metrics import evaluate_metrics, filter_mega_isp
from ..scanner import Scanner
from ..telemetry import get_telemetry
from ..tga import canonical_tga_name, create_tga
from ..tga.modelcache import get_model_cache
from .results import RunResult

__all__ = ["run_generation"]

#: Break the loop when the generator fails to add fresh addresses for
#: this many consecutive rounds (pattern space exhausted).
_MAX_STALLED_ROUNDS = 3


def run_generation(
    internet: SimulatedInternet,
    tga_name: str,
    seeds: SeedDataset,
    port: Port,
    budget: int,
    round_size: int = 2_000,
    scanner: Scanner | None = None,
    dealias_outputs: bool = True,
    tga_factory=None,
    known_addresses: frozenset[int] | None = None,
) -> RunResult:
    """Run one TGA over one seed dataset on one scan target.

    ``tga_factory``, when given, is called as ``tga_factory(salt)`` and
    must return a prepared-able generator — the hook ablation studies use
    to run non-default generator parameterisations.

    ``known_addresses`` is the study-wide pool of already known seeds:
    re-"discovering" an address that some other dataset already contained
    is not a new device, so such addresses never count as hits.  (At the
    paper's 50M scale this correction is negligible; at library scale it
    keeps cross-dataset comparisons honest.)
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    if tga_factory is None:
        # Aliases resolve here so results and trace spans always carry
        # the canonical registry name; factory runs keep their label
        # (ablations use names outside the registry).
        tga_name = canonical_tga_name(tga_name)
    scanner = scanner or Scanner(internet)
    salt = hash64(internet.config.master_seed, len(seeds), port.index)
    tga = tga_factory(salt) if tga_factory is not None else create_tga(tga_name, salt=salt)
    seed_set = seeds.addresses
    tel = get_telemetry()

    with tel.span(
        "cell", tga=tga_name, dataset=seeds.name, port=port.value, budget=budget
    ) as cell_span:
        virtual_start = scanner.rate_limiter.virtual_time
        with tel.span("prepare") as prepare_span:
            cache = get_model_cache()
            misses_before = cache.stats.misses
            hits_before = cache.stats.hits
            tga.prepare(seeds.sorted_seeds)
            # ``cached``: every model artifact this prepare needed came
            # from the cache.  Lives in the sanctioned
            # ``tga.model_cache.*`` variant namespace — cold and warm
            # runs legitimately differ here and nowhere else.
            prepare_span.annotate(
                cached=bool(
                    cache.enabled
                    and cache.stats.misses == misses_before
                    and cache.stats.hits > hits_before
                )
            )

        generated: set[int] = set()
        raw_hits: set[int] = set()
        stalled = 0
        rounds = 0
        round_history: list[tuple[int, int]] = []
        with tel.span("generate") as generate_span:
            generate_start = scanner.rate_limiter.virtual_time
            while len(generated) < budget and stalled < _MAX_STALLED_ROUNDS:
                want = min(round_size, budget - len(generated))
                batch = tga.propose_batch(want)
                if not batch:
                    break
                fresh = [
                    address
                    for address in batch
                    if address not in generated and address not in seed_set
                ]
                rounds += 1
                if tel.enabled:
                    tel.count("tga.rounds")
                    tel.count("tga.dedup_discards", len(batch) - len(fresh))
                    tel.count("tga.budget_consumed", len(fresh))
                if not fresh:
                    stalled += 1
                    continue
                stalled = 0
                generated.update(fresh)
                result = scanner.scan(fresh, port)
                raw_hits |= result.hits
                round_history.append((len(generated), len(raw_hits)))
                if tel.enabled:
                    tel.emit(
                        "round",
                        tga=tga_name,
                        dataset=seeds.name,
                        port=port.value,
                        round=rounds,
                        candidates=len(batch),
                        fresh=len(fresh),
                        generated=len(generated),
                        raw_hits=len(raw_hits),
                    )
                tga.feedback({address: address in result.hits for address in fresh})
            generate_span.add_virtual(
                scanner.rate_limiter.virtual_time - generate_start
            )

        if dealias_outputs:
            with tel.span("dealias") as dealias_span:
                dealias_start = scanner.rate_limiter.virtual_time
                offline = OfflineDealiaser.from_internet(internet)
                clean, aliased = offline.partition(raw_hits)
                online = OnlineDealiaser(scanner)
                clean, online_aliased = online.partition(clean, port)
                aliased |= online_aliased
                dealias_span.add_virtual(
                    scanner.rate_limiter.virtual_time - dealias_start
                )
        else:
            clean, aliased = set(raw_hits), set()

        if known_addresses:
            clean -= known_addresses

        registry = internet.registry
        metrics = evaluate_metrics(
            clean, aliased, registry, port, mega_asn=internet.mega_isp_asn
        )
        counted = filter_mega_isp(clean, registry, internet.mega_isp_asn, port)
        cell_span.add_virtual(scanner.rate_limiter.virtual_time - virtual_start)
        run = RunResult(
            tga_name=tga_name,
            dataset_name=seeds.name,
            port=port,
            budget=budget,
            generated=len(generated),
            clean_hits=frozenset(counted),
            aliased_hits=frozenset(aliased),
            active_ases=frozenset(registry.ases_of(counted)),
            metrics=metrics,
            probes_sent=scanner.rate_limiter.packets_sent,
            rounds=rounds,
            round_history=tuple(round_history),
        )
    if tel.enabled:
        tel.emit(
            "cell",
            tga=tga_name,
            dataset=seeds.name,
            port=port.value,
            budget=budget,
            generated=run.generated,
            hits=run.metrics.hits,
            ases=run.metrics.ases,
            aliases=run.metrics.aliases,
            probes_sent=run.probes_sent,
            rounds=run.rounds,
        )
    return run
