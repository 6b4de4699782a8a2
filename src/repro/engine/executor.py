"""Shard executors, and the one loop that drives them over a plan.

Both backends yield ``(shard_id, payload)`` pairs as shards finish, so
:func:`execute_plan` can checkpoint each one immediately. Payloads are
in-memory :class:`~repro.engine.plan.ShardPayload` records on every
path — pool workers pickle them back, resumed shards are decoded by the
checkpoint store — and become JSON only when that store writes them.

The multiprocessing backend materializes the world *inside each worker
process* from the campaign's world config (worlds are deterministic
functions of their config), so nothing heavier than a
:class:`~repro.engine.plan.ShardSpec` ever crosses into a worker.
"""

from __future__ import annotations

import multiprocessing
from typing import Iterable, Iterator, Optional, Protocol, Union

from repro.engine.checkpoint import CheckpointStore
from repro.engine.plan import CampaignPlan, ShardPayload, ShardSpec
from repro.engine.progress import CampaignStats, NullProgress, ProgressReporter
from repro.faults.plan import FaultPlan
from repro.measurement.runner import MeasurementCampaign
from repro.telemetry.context import TelemetryConfig
from repro.worldgen.config import WorldConfig
from repro.worldgen.world import World, build_world


class WorldSource(Protocol):
    """A picklable recipe a pool worker can rebuild its world from.

    ``WorldConfig`` covers the ordinary single-snapshot case; timeline
    epochs ship a :class:`repro.engine.epochs.TimelineWorldSource`
    because intermediate epochs cannot be derived from a ``WorldConfig``
    alone.
    """

    def build(self) -> World: ...


# Per-worker-process campaign, created once by the pool initializer.
_WORKER_CAMPAIGN: Optional[MeasurementCampaign] = None


def _init_worker(
    config: Union[WorldConfig, WorldSource],
    region: Optional[str],
    fault_plan: Optional[FaultPlan] = None,
    telemetry_config: Optional[TelemetryConfig] = None,
) -> None:
    global _WORKER_CAMPAIGN
    world = (
        build_world(config) if isinstance(config, WorldConfig)
        else config.build()
    )
    telemetry = (
        telemetry_config.build() if telemetry_config is not None else None
    )
    _WORKER_CAMPAIGN = MeasurementCampaign(
        world, region=region, fault_plan=fault_plan, telemetry=telemetry
    )


def measure_shard(
    campaign: MeasurementCampaign, shard: ShardSpec
) -> ShardPayload:
    """Measure one shard's sites into a payload.

    When the campaign carries telemetry, the shard payload also carries
    the registry state drained *after exactly this shard's sites* — the
    drain scopes metrics per shard, so merged aggregates are independent
    of which worker measured which shard.
    """
    websites = [
        campaign.measure_site(domain, rank) for domain, rank in shard.sites
    ]
    tel = campaign.telemetry
    metrics = tel.drain_metrics() if tel is not None else None
    return ShardPayload(websites, metrics)


def _measure_shard_in_worker(shard: ShardSpec) -> tuple[int, ShardPayload]:
    assert _WORKER_CAMPAIGN is not None, "worker pool not initialized"
    return shard.shard_id, measure_shard(_WORKER_CAMPAIGN, shard)


class SerialExecutor:
    """In-process backend: shards measured in order through one campaign.

    Pass the *same* campaign instance the merger will use: the campaign's
    SOA memo then spans the measure and inter-service passes exactly as
    it does in :meth:`MeasurementCampaign.run`, which is what makes the
    serial engine byte-identical to a direct run (re-querying a name
    after the measure phase can hit the resolver's negative cache and
    answer differently than its first touch). Payloads are the measured
    records themselves; nothing is encoded on the way to the merger.
    """

    def __init__(self, campaign: MeasurementCampaign) -> None:
        self._campaign = campaign

    def run(
        self, shards: Iterable[ShardSpec]
    ) -> Iterator[tuple[int, ShardPayload]]:
        for shard in shards:
            yield shard.shard_id, measure_shard(self._campaign, shard)


class MultiprocessExecutor:
    """``multiprocessing.Pool`` backend: each worker materializes the
    world from its config/seed and measures whole shards."""

    def __init__(
        self,
        config: Union[WorldConfig, WorldSource],
        workers: int,
        region: Optional[str] = None,
        fault_plan: Optional[FaultPlan] = None,
        telemetry_config: Optional[TelemetryConfig] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"worker count must be >= 1, got {workers}")
        self._workers = workers
        self._initargs = (config, region, fault_plan, telemetry_config)

    def run(
        self, shards: Iterable[ShardSpec]
    ) -> Iterator[tuple[int, ShardPayload]]:
        shards = list(shards)
        if not shards:
            return
        pool = multiprocessing.Pool(
            processes=min(self._workers, len(shards)),
            initializer=_init_worker,
            initargs=self._initargs,
        )
        try:
            # Unordered: the merger reassembles by shard id, so slow
            # shards never block checkpointing of finished ones.
            for result in pool.imap_unordered(_measure_shard_in_worker, shards):
                yield result
            pool.close()
            pool.join()
        finally:
            pool.terminate()


def execute_plan(
    plan: CampaignPlan,
    campaign: MeasurementCampaign,
    source: Union[WorldConfig, WorldSource],
    workers: int = 1,
    store: Optional[CheckpointStore] = None,
    resume: bool = False,
    progress: Optional[ProgressReporter] = None,
    stats: Optional[CampaignStats] = None,
) -> dict[int, ShardPayload]:
    """Measure ``plan``'s shards; return every shard's payload by id.

    A ``store`` supplies the shards it already holds (see
    :meth:`CheckpointStore.open`) and receives each new one as it
    finishes. One worker measures through ``campaign`` itself; more
    rebuild the world from ``source`` in a pool, with a metrics-only
    telemetry facade (tracing needs one world to observe every site).
    Closes the ``plan`` and ``measure`` phases on ``stats``.
    """
    progress = progress if progress is not None else NullProgress()
    stats = stats if stats is not None else CampaignStats()
    payloads = store.open(plan, resume) if store is not None else {}
    pending = [s for s in plan.shards if s.shard_id not in payloads]
    stats.shards_total = len(plan.shards)
    stats.shards_skipped = len(payloads)
    stats.sites_total = plan.n_sites
    stats.end_phase("plan", progress)
    progress.on_plan(stats)

    executor: Union[SerialExecutor, MultiprocessExecutor]
    if workers <= 1:
        executor = SerialExecutor(campaign)
    else:
        tel = campaign.telemetry
        metrics = tel is not None and tel.metrics is not None
        executor = MultiprocessExecutor(
            source, workers, campaign.region, campaign.fault_plan,
            TelemetryConfig(metrics=True) if metrics else None,
        )
    for shard_id, payload in executor.run(pending):
        if store is not None:
            store.write_shard(shard_id, payload)
        payloads[shard_id] = payload
        stats.shards_done += 1
        stats.sites_done += len(payload)
        progress.on_shard_done(shard_id, len(payload), stats)
    stats.end_phase("measure", progress)
    return payloads
