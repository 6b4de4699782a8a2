"""The campaign-execution engine: sharded, parallel, resumable.

``run_campaign`` orchestrates the pieces::

    plan      partition the ranked site list into shards   (engine.plan)
    execute   measure shards serially or in a process pool (engine.executor)
    persist   checkpoint each finished shard + manifest    (engine.checkpoint)
    merge     recombine shards, rerun inter-service pass   (engine.merge)
    report    shards done, sites/sec, per-phase timings    (engine.progress)

The contract is determinism: for a fixed world fingerprint
(n/seed/year/region/limit), the merged dataset serializes to the exact
bytes a serial :meth:`MeasurementCampaign.run` produces, for any shard
count, worker count, or interrupt/resume history.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.engine.checkpoint import CheckpointStore, StaleCheckpointError
from repro.engine.executor import (
    MultiprocessExecutor,
    SerialExecutor,
    WorldSource,
    execute_plan,
)
from repro.engine.epochs import (
    EpochResult,
    TimelineWorldSource,
    run_timeline,
)
from repro.engine.merge import merge_shards
from repro.engine.plan import (
    CampaignPlan,
    ShardPayload,
    ShardSpec,
    WorldFingerprint,
    partition_sites,
    plan_campaign,
)
from repro.engine.progress import (
    CampaignStats,
    ConsoleProgress,
    NullProgress,
    PhaseTimer,
    ProgressReporter,
)
from repro.faults.plan import FaultPlan
from repro.measurement.records import Dataset
from repro.measurement.runner import MeasurementCampaign
from repro.telemetry.context import Telemetry
from repro.worldgen.config import WorldConfig
from repro.worldgen.world import World, build_world

__all__ = [
    "CampaignPlan",
    "CampaignStats",
    "CheckpointStore",
    "ConsoleProgress",
    "EpochResult",
    "MultiprocessExecutor",
    "NullProgress",
    "PhaseTimer",
    "ProgressReporter",
    "SerialExecutor",
    "ShardPayload",
    "ShardSpec",
    "StaleCheckpointError",
    "TimelineWorldSource",
    "WorldFingerprint",
    "WorldSource",
    "execute_plan",
    "merge_shards",
    "partition_sites",
    "plan_campaign",
    "run_campaign",
    "run_timeline",
]


def run_campaign(
    config: Optional[WorldConfig] = None,
    *,
    world: Optional[World] = None,
    world_source: Optional["WorldSource"] = None,
    epoch: Optional[int] = None,
    shards: int = 1,
    workers: int = 1,
    limit: Optional[int] = None,
    region: Optional[str] = None,
    checkpoint_dir: Optional[Union[str, "CheckpointStore"]] = None,
    resume: bool = False,
    progress: Optional[ProgressReporter] = None,
    stats: Optional[CampaignStats] = None,
    fault_plan: Optional[FaultPlan] = None,
    telemetry: Optional[Telemetry] = None,
) -> Dataset:
    """Execute one measurement campaign through the engine.

    Pass either a ``config`` (the world is built from it — and rebuilt
    inside each pool worker) or a prebuilt ``world``. With a
    ``checkpoint_dir``, finished shards are persisted as they complete;
    ``resume=True`` validates the directory's manifest against this
    campaign's world fingerprint and skips already-completed shards,
    raising :class:`StaleCheckpointError` on any mismatch. A non-empty
    ``fault_plan`` threads seeded fault injection through every worker's
    world; the plan's digest joins the fingerprint, so a checkpoint from
    one plan refuses shards measured under another.

    ``telemetry`` installs observability: when its metrics registry is
    on, every shard payload carries the shard's drained (shard-stable)
    metrics and the merged campaign aggregate lands in
    ``telemetry.campaign_metrics`` — byte-identical for any worker/shard
    count. Workers rebuild a metrics-only facade from a picklable
    config; the parent's tracer (if any) observes the serial path and
    the inter-service pass.
    """
    progress = progress if progress is not None else NullProgress()
    stats = stats if stats is not None else CampaignStats()
    stats.start()
    stats.workers = workers

    # -- plan --------------------------------------------------------------
    if world is None:
        if world_source is not None:
            world = world_source.build()
        elif config is not None:
            world = build_world(config)
        else:
            raise ValueError(
                "run_campaign needs a config, a world, or a world_source"
            )
    plan = plan_campaign(
        world, n_shards=shards, limit=limit, region=region,
        fault_plan=fault_plan, epoch=epoch,
    )
    campaign = MeasurementCampaign(
        world, limit=limit, region=region, fault_plan=fault_plan,
        telemetry=telemetry,
    )

    store: Optional[CheckpointStore] = None
    if isinstance(checkpoint_dir, CheckpointStore):
        store = checkpoint_dir
    elif checkpoint_dir is not None:
        store = CheckpointStore(checkpoint_dir)

    # -- measure (resuming from and checkpointing to the store) -----------
    # Serial runs measure through `campaign`, shared with the merge pass
    # (see SerialExecutor); pool workers rebuild the world from a recipe.
    payloads = execute_plan(
        plan, campaign,
        world_source if world_source is not None else world.config,
        workers, store, resume, progress, stats,
    )

    # -- merge + inter-service pass ---------------------------------------
    dataset = merge_shards(campaign, plan, payloads)
    stats.end_phase("merge", progress)
    progress.on_finish(stats)
    return dataset
