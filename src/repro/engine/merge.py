"""Shard merger: recombine shard payloads into one dataset.

Payloads are :class:`~repro.engine.plan.ShardPayload` records on every
path (fresh, pooled or resumed), so merging parses nothing.
Shards are concatenated in shard-id order (= global rank order, because
the planner slices contiguously), then the campaign's inter-service
pass runs once over the merged observed-provider sets. Because that
pass derives everything from ``dataset.websites``, the merged output is
byte-identical to a serial run regardless of shard count, worker count,
or the completion order the executor happened to produce.

Telemetry metrics merge the same way: per-shard registry states (drained
into the shard payloads by the executor) are folded in shard-id order —
integer arithmetic, so the fold is exact and associative — then the
inter-service pass's own metrics (recorded once, in this process) ride
on top. The campaign aggregate is therefore byte-identical for any
worker/shard count, exactly like the dataset.
"""

from __future__ import annotations

from typing import Mapping

from repro.engine.plan import CampaignPlan, ShardPayload
from repro.measurement.records import Dataset
from repro.measurement.runner import MeasurementCampaign
from repro.telemetry.metrics import MetricsRegistry


def merge_shards(
    campaign: MeasurementCampaign,
    plan: CampaignPlan,
    payloads: Mapping[int, ShardPayload],
) -> Dataset:
    """Merge shard payloads and run the inter-service pass.

    When the campaign carries a metrics registry, every shard payload
    must carry drained metrics; a shard without them (checkpointed by a
    telemetry-less run) raises ``ValueError`` rather than silently
    under-counting the aggregate. The merged registry lands in
    ``campaign.telemetry.campaign_metrics``.
    """
    missing = [s.shard_id for s in plan.shards if s.shard_id not in payloads]
    if missing:
        raise ValueError(f"cannot merge: shards {missing} have no payload")
    tel = campaign.telemetry
    collect = tel is not None and tel.metrics is not None
    merged = MetricsRegistry()
    dataset = Dataset(year=campaign.world.year)
    for shard in plan.shards:
        payload = payloads[shard.shard_id]
        if len(payload) != shard.n_sites:
            raise ValueError(
                f"shard {shard.shard_id} payload has {len(payload)} "
                f"websites but the plan expects {shard.n_sites}"
            )
        if collect:
            if payload.metrics is None:
                raise ValueError(
                    f"cannot merge metrics: shard {shard.shard_id} was "
                    f"checkpointed without telemetry; rerun without "
                    f"metrics collection or from a fresh checkpoint "
                    f"directory"
                )
            merged.merge_dict(payload.metrics)
        dataset.websites.extend(payload.websites)
    campaign.run_interservice(dataset)
    if collect:
        assert tel is not None
        remainder = tel.drain_metrics()
        if remainder is not None:
            merged.merge_dict(remainder)
        tel.campaign_metrics = merged.to_dict()
    return dataset
