"""Checkpoint store: completed shards as JSON artifacts + a manifest.

Layout of a checkpoint directory::

    manifest.json     world fingerprint + per-shard site-list digests
    shard-0000.json   one completed shard (repro.measurement.io shard JSON)
    shard-0001.json   ...

A run writes the manifest first, then each shard atomically as it
completes. Resuming validates the manifest against the current plan —
same world fingerprint, same shard partition — and skips shards whose
artifacts exist; anything else raises :class:`StaleCheckpointError`
rather than silently merging measurements of a different world.
It is also the only place shard records meet JSON: a campaign
without a checkpoint directory never serializes a shard.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Union

from repro.engine.plan import CampaignPlan, ShardPayload, WorldFingerprint
from repro.measurement.io import shard_payload_from_json, shard_to_json

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT_VERSION = 1


class StaleCheckpointError(ValueError):
    """The checkpoint directory belongs to a different campaign."""


class CheckpointStore:
    """Shard artifacts + manifest under one directory."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)

    # -- paths -------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def shard_path(self, shard_id: int) -> Path:
        return self.directory / f"shard-{shard_id:04d}.json"

    # -- manifest ----------------------------------------------------------

    def has_manifest(self) -> bool:
        return self.manifest_path.exists()

    def open(self, plan: CampaignPlan, resume: bool) -> dict[int, ShardPayload]:
        """Bind this directory to ``plan``: write a fresh one's manifest,
        or (only with ``resume``) validate a started one's and return
        the shards it holds."""
        if not self.has_manifest():
            self.write_manifest(plan)
            return {}
        if not resume:
            raise ValueError(
                f"checkpoint directory {self.directory} already holds "
                f"a campaign; pass resume=True (--resume) to continue "
                f"it, or point at a fresh directory"
            )
        self.validate_manifest(plan)
        completed = self.completed_shards()
        return {
            shard.shard_id: self.load_shard(shard.shard_id)
            for shard in plan.shards
            if shard.shard_id in completed
        }

    def write_manifest(self, plan: CampaignPlan) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = {
            "manifest_format_version": MANIFEST_FORMAT_VERSION,
            "fingerprint": plan.fingerprint.to_json(),
            "shards": [
                {
                    "shard_id": shard.shard_id,
                    "n_sites": shard.n_sites,
                    "sites_sha256": shard.digest(),
                }
                for shard in plan.shards
            ],
        }
        self._atomic_write(
            self.manifest_path, json.dumps(payload, indent=1, sort_keys=True)
        )

    def validate_manifest(self, plan: CampaignPlan) -> None:
        """Refuse to resume against a manifest for a different campaign."""
        try:
            payload = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise StaleCheckpointError(
                f"unreadable checkpoint manifest at {self.manifest_path}: {exc}"
            ) from exc
        version = payload.get("manifest_format_version")
        if version != MANIFEST_FORMAT_VERSION:
            raise StaleCheckpointError(
                f"cannot read checkpoint manifest: found "
                f"manifest_format_version {version!r}, but this build "
                f"supports version {MANIFEST_FORMAT_VERSION}"
            )
        found = WorldFingerprint.from_json(payload["fingerprint"])
        if found != plan.fingerprint:
            raise StaleCheckpointError(
                f"checkpoint at {self.directory} was written for world "
                f"[{found.describe()}] but this campaign measures "
                f"[{plan.fingerprint.describe()}]; use a fresh "
                f"--checkpoint-dir or rerun with the original parameters"
            )
        recorded = payload.get("shards", [])
        if len(recorded) != len(plan.shards):
            raise StaleCheckpointError(
                f"checkpoint at {self.directory} has {len(recorded)} shards "
                f"but this campaign plans {len(plan.shards)}; rerun with "
                f"--shards {len(recorded)} or use a fresh --checkpoint-dir"
            )
        for entry, shard in zip(recorded, plan.shards):
            if (
                entry.get("shard_id") != shard.shard_id
                or entry.get("sites_sha256") != shard.digest()
            ):
                raise StaleCheckpointError(
                    f"checkpoint shard {shard.shard_id} at {self.directory} "
                    f"covers a different site list than this campaign's plan"
                )

    # -- shards ------------------------------------------------------------

    def completed_shards(self) -> set[int]:
        if not self.directory.is_dir():
            return set()
        done: set[int] = set()
        for path in self.directory.glob("shard-*.json"):
            try:
                done.add(int(path.stem.split("-", 1)[1]))
            except ValueError:
                continue
        return done

    def write_shard(self, shard_id: int, payload: ShardPayload) -> None:
        self._atomic_write(
            self.shard_path(shard_id),
            shard_to_json(payload.websites, payload.metrics),
        )

    def load_shard(self, shard_id: int) -> ShardPayload:
        websites, metrics = shard_payload_from_json(
            self.shard_path(shard_id).read_text(encoding="utf-8")
        )
        return ShardPayload(websites, metrics)

    # -- internals ---------------------------------------------------------

    def _atomic_write(self, path: Path, text: str) -> None:
        """Write-then-rename, so a killed run never leaves a torn
        artifact that a resume would mistake for a completed shard."""
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
