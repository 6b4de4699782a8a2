"""Benchmark-side tracing: wrappers around each layer's public functions.

Nothing inside ``src/`` is instrumented. :meth:`Tracer.install` replaces
the public functions listed in :data:`TARGETS` with timing wrappers, both
on their defining class or module and in every ``repro.*`` module that
imported them by name. Each call becomes a span ``(id, name, start, end,
parent, key)`` kept in memory in flat arrays (the hottest leaves only
as totals); :meth:`Tracer.dump` writes them out at the end. A layer's *self time* is the time its spans cover
minus the part their child spans cover, so the self times of all layers
plus the benchmark's own root spans add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Optional

#: (module, attribute path, span name). The layer is the span name's
#: prefix; one span name may cover several functions.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.worldgen.world", "build_world", "worldgen.build"),
    ("repro.worldgen.timeline", "Timeline.world", "worldgen.epoch_world"),
    ("repro.worldgen.timeline", "Timeline.spec", "worldgen.spec"),
    ("repro.names.normalize", "normalize", "names.normalize"),
    ("repro.names.normalize", "split_labels", "names.split_labels"),
    ("repro.dnssim.server", "AuthoritativeServer.zone_for", "dnssim.zone_for"),
    ("repro.dnssim.server", "AuthoritativeServer.handle", "dnssim.handle"),
    ("repro.dnssim.resolver", "IterativeResolver.lookup", "dnssim.lookup"),
    ("repro.dnssim.message", "DnsMessage.to_wire", "dnssim.to_wire"),
    ("repro.dnssim.message", "DnsMessage.from_wire", "dnssim.from_wire"),
    ("repro.websim.crawler", "Crawler.crawl", "websim.crawl"),
    ("repro.websim.client", "WebClient.get", "websim.fetch"),
    ("repro.measurement.runner", "MeasurementCampaign.measure_site",
     "measurement.site"),
    ("repro.measurement.dns_measurer", "DnsMeasurer.measure",
     "measurement.dns"),
    ("repro.measurement.dns_measurer", "DnsMeasurer.soa_identity",
     "measurement.soa"),
    ("repro.measurement.tls_measurer", "TlsMeasurer.extract",
     "measurement.tls"),
    ("repro.measurement.cdn_measurer", "CdnMeasurer.measure",
     "measurement.cdn"),
    ("repro.measurement.runner", "MeasurementCampaign.run_interservice",
     "measurement.interservice"),
    ("repro.measurement.io", "dataset_to_json", "io.to_json"),
    ("repro.measurement.io", "dataset_from_json", "io.from_json"),
    ("repro.measurement.io", "shard_to_json", "io.shard_to_json"),
    ("repro.measurement.io", "shard_payload_from_json", "io.shard_from_json"),
    ("repro.engine", "run_campaign", "engine.run_campaign"),
    ("repro.engine.epochs", "run_timeline", "engine.run_timeline"),
    ("repro.engine.executor", "measure_shard", "engine.shard"),
    ("repro.engine.merge", "merge_shards", "engine.merge"),
    ("repro.core.pipeline", "analyze_dataset", "core.analyze"),
    ("repro.core.classification", "classify_dns", "core.classify_dns"),
    ("repro.core.classification", "classify_cdn", "core.classify_cdn"),
    ("repro.core.classification", "classify_ca", "core.classify_ca"),
    ("repro.core.graph", "build_graph", "core.build_graph"),
    ("repro.core.graph", "DependencyGraph.provider_metrics", "core.sweep"),
    ("repro.core.incremental", "refresh_snapshot", "core.refresh"),
    ("repro.store.compile", "compile_snapshot", "store.compile"),
    ("repro.store.compile", "compile_dataset_text", "store.compile_text"),
    ("repro.store.reader", "StoreReader.load", "store.load"),
    ("repro.query.engine", "QueryEngine.top", "query.top"),
    ("repro.query.engine", "QueryEngine.site", "query.site"),
    ("repro.query.engine", "QueryEngine.dependents", "query.dependents"),
    ("repro.query.engine", "QueryEngine.whatif", "query.whatif"),
    ("repro.serve.service", "ServeService.answer", "serve.answer"),
    ("repro.serve.service", "ServeService.answer_batch", "serve.answer"),
    ("repro.serve.service", "ServeService.answer_diff", "serve.answer"),
    ("repro.serve.registry", "StoreRegistry.acquire", "serve.acquire"),
)

#: Spans whose result length is summed (bytes on the wire / on disk).
SIZED = frozenset({
    "dnssim.to_wire", "io.to_json", "engine.shard", "store.compile",
})

#: Leaf spans called millions of times per run: counted and timed, but
#: not stored one by one (a row each would cost hundreds of MB).
AGGREGATED = frozenset({"names.normalize", "names.split_labels"})

#: Spans whose key (the site) comes from their arguments.
_KEYS: dict[str, Callable[..., Optional[str]]] = {
    "measurement.site": lambda campaign, domain, *a, **k: domain,
}

#: Per-layer time metrics: metric name -> span names whose self time sums.
TIME_METRICS: dict[str, tuple[str, ...]] = {
    "dnssim.zone_for_s": ("dnssim.zone_for",),
    "dnssim.server_s": ("dnssim.handle",),
    "dnssim.lookup_s": ("dnssim.lookup",),
    "dnssim.codec_s": ("dnssim.to_wire", "dnssim.from_wire"),
    "names.normalize_s": ("names.normalize", "names.split_labels"),
    "websim.crawl_s": ("websim.crawl", "websim.fetch"),
    "measurement.site_s": ("measurement.site",),
    "measurement.dns_s": ("measurement.dns",),
    "measurement.tls_s": ("measurement.tls", "measurement.soa"),
    "measurement.cdn_s": ("measurement.cdn",),
    "measurement.interservice_s": ("measurement.interservice",),
    "engine.run_s": ("engine.run_campaign", "engine.run_timeline",
                     "engine.shard"),
    "engine.merge_s": ("engine.merge",),
    "worldgen.build_s": ("worldgen.build",),
    "worldgen.epoch_world_s": ("worldgen.epoch_world",),
    "worldgen.spec_s": ("worldgen.spec",),
    "io.to_json_s": ("io.to_json",),
    "io.from_json_s": ("io.from_json",),
    "io.shard_s": ("io.shard_to_json", "io.shard_from_json"),
    "core.analyze_s": ("core.analyze",),
    "core.classify_s": ("core.classify_dns", "core.classify_cdn",
                        "core.classify_ca"),
    "core.graph_s": ("core.build_graph",),
    "core.sweep_s": ("core.sweep",),
    "core.refresh_s": ("core.refresh",),
    "store.compile_s": ("store.compile", "store.compile_text"),
    "store.load_s": ("store.load",),
    "query.top_s": ("query.top",),
    "query.site_s": ("query.site",),
    "query.dependents_s": ("query.dependents",),
    "query.whatif_s": ("query.whatif",),
    "serve.answer_s": ("serve.answer",),
    "serve.acquire_s": ("serve.acquire",),
}

#: Per-layer count metrics: metric name -> span names whose calls sum.
COUNT_METRICS: dict[str, tuple[str, ...]] = {
    "dnssim.server_queries": ("dnssim.handle",),
    "dnssim.lookups": ("dnssim.lookup",),
    "names.normalize_calls": ("names.normalize", "names.split_labels"),
    "websim.fetches": ("websim.fetch",),
}

#: Per-layer byte metrics: metric name -> sized span name.
BYTE_METRICS: dict[str, str] = {
    "dnssim.wire_bytes": "dnssim.to_wire",
    "engine.shard_bytes": "engine.shard",
    "io.dataset_bytes": "io.to_json",
    "store.bytes": "store.compile",
}

#: Root spans opened by the benchmark itself carry this layer.
BENCH_LAYER = "bench"


def _resolve(module: Any, path: str) -> tuple[Any, str, Any]:
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], owner.__dict__[parts[-1]]


class Tracer:
    """In-memory span recorder with wrappers for :data:`TARGETS`.

    Self time is accumulated as spans close: each open span's frame
    collects the time its children covered. Spans of :data:`AGGREGATED`
    names are folded into those totals only; every other span is also
    stored as a row for :meth:`dump`.
    """

    def __init__(self) -> None:
        self.on = True
        self._stack: list[list[int]] = []
        self._next_id = 0
        self.wall_ns = 0
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._self_ns: list[int] = []
        self._calls: list[int] = []
        self.keys: list[str] = [""]
        self._key_ids: dict[str, int] = {"": 0}
        self.span_id = array("q")
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_key = array("q")
        self.sizes: dict[str, int] = defaultdict(int)
        self._installed: list[tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._self_ns.append(0)
            self._calls.append(0)
        return self._name_ids[name]

    def _key_id(self, key: str) -> int:
        if key not in self._key_ids:
            self._key_ids[key] = len(self.keys)
            self.keys.append(key)
        return self._key_ids[key]

    def _open(self, key: Optional[str]) -> list[int]:
        """Push a frame ``[id, parent id, key id, child ns]``."""
        stack = self._stack
        sid = self._next_id
        self._next_id += 1
        parent = stack[-1] if stack else None
        if key:
            key_id = self._key_id(key)
        else:
            key_id = parent[2] if parent is not None else 0
        frame = [sid, parent[0] if parent is not None else -1, key_id, 0]
        stack.append(frame)
        return frame

    def _close(self, frame: list[int], name_id: int, start: int, end: int,
               keep: bool) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][3] += duration
        else:
            self.wall_ns += duration
        self._self_ns[name_id] += duration - frame[3]
        self._calls[name_id] += 1
        if keep:
            self.span_id.append(frame[0])
            self.span_name.append(name_id)
            self.span_start.append(start)
            self.span_end.append(end)
            self.span_parent.append(frame[1])
            self.span_key.append(frame[2])

    def span(self, name: str, key: Optional[str] = None) -> "_Span":
        """A context manager for one benchmark-owned (root) span."""
        return _Span(self, self._name_id(name), key)

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        tracer = self
        name_id = self._name_id(name)
        key_of = _KEYS.get(name)
        sized = name in SIZED
        keep = name not in AGGREGATED
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.on:
                return fn(*args, **kwargs)
            frame = tracer._open(
                key_of(*args, **kwargs) if key_of is not None else None
            )
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, name_id, start, clock(), keep)
            if sized:
                tracer.sizes[name] += len(result)
            return result

        wrapper.__wrapped_by_pipebench__ = True  # type: ignore[attr-defined]
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target, in its owner and in every ``repro`` module
        that imported it by name; :meth:`uninstall` undoes it."""
        replacements: dict[int, tuple[Any, Any]] = {}
        for module_name, path, name in TARGETS:
            module = importlib.import_module(module_name)
            owner, attr, original = _resolve(module, path)
            if getattr(original, "__wrapped_by_pipebench__", False):
                continue
            if isinstance(original, classmethod):
                wrapped: Any = classmethod(self.wrap(original.__func__, name))
            else:
                wrapped = self.wrap(original, name)
                replacements[id(original)] = (original, wrapped)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._installed.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- results ------------------------------------------------------------

    def spans_where(self, name: str) -> list[tuple[str, int]]:
        """(key, duration ns) for every stored span called ``name``."""
        if name not in self._name_ids:
            return []
        name_id = self._name_ids[name]
        return [
            (self.keys[self.span_key[i]], self.span_end[i] - self.span_start[i])
            for i in range(len(self.span_id))
            if self.span_name[i] == name_id
        ]

    def summary(self) -> dict[str, Any]:
        """Self time and calls per span name (a JSON-able digest)."""
        return {
            "wall_ns": self.wall_ns,
            "self_ns": dict(zip(self.names, self._self_ns)),
            "calls": dict(zip(self.names, self._calls)),
            "sizes": dict(self.sizes),
        }

    def dump(self, path: Path) -> None:
        """Write the stored spans: a JSON header plus int64 columns."""
        header = {
            "schema": "pipebench-spans/1",
            "names": self.names,
            "keys": self.keys,
            "columns": ["id", "name", "start_ns", "end_ns", "parent", "key"],
            "rows": len(self.span_id),
            "aggregated": sorted(AGGREGATED),
            "summary": self.summary(),
        }
        path.with_suffix(".json").write_text(json.dumps(header))
        with open(path.with_suffix(".bin"), "wb") as out:
            for column in (self.span_id, self.span_name, self.span_start,
                           self.span_end, self.span_parent, self.span_key):
                column.tofile(out)


class _Span:
    def __init__(self, tracer: Tracer, name_id: int, key: Optional[str]):
        self._tracer = tracer
        self._name_id = name_id
        self._key = key

    def __enter__(self) -> "_Span":
        self._frame = self._tracer._open(self._key)
        self._start = time.perf_counter_ns()  # repro: noqa[REP001] -- benchmark harness measures wall-clock by design; never serialized by the program
        return self

    def __exit__(self, *exc: Any) -> None:
        self._tracer._close(self._frame, self._name_id, self._start,
                            time.perf_counter_ns(), True)  # repro: noqa[REP001] -- benchmark harness measures wall-clock by design; never serialized by the program


def layer_metrics(summary: dict[str, Any]) -> dict[str, float]:
    """The per-layer metric values derivable from one span summary."""
    self_ns = summary["self_ns"]
    calls = summary["calls"]
    sizes = summary["sizes"]
    out: dict[str, float] = {}
    for metric, names in TIME_METRICS.items():
        out[metric] = sum(self_ns.get(n, 0) for n in names) / 1e9
    for metric, names in COUNT_METRICS.items():
        out[metric] = float(sum(calls.get(n, 0) for n in names))
    for metric, name in BYTE_METRICS.items():
        out[metric] = float(sizes.get(name, 0))
    return out


def layer_table(summary: dict[str, Any], title: str) -> list[str]:
    """Human-readable self time per layer; rows sum to the wall time."""
    by_layer: dict[str, int] = defaultdict(int)
    calls_by_layer: dict[str, int] = defaultdict(int)
    for name, ns in summary["self_ns"].items():
        layer = name.split(".", 1)[0]
        by_layer[layer] += ns
        calls_by_layer[layer] += summary["calls"].get(name, 0)
    wall = summary["wall_ns"] or 1
    lines = [f"{title}: per-layer self time (wall {wall / 1e9:.3f} s)",
             f"  {'layer':<12} {'self_s':>9} {'share':>7} {'spans':>10}"]
    total = 0
    for layer, ns in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        if not calls_by_layer[layer]:
            continue
        total += ns
        lines.append(
            f"  {layer:<12} {ns / 1e9:9.3f} {100 * ns / wall:6.1f}% "
            f"{calls_by_layer[layer]:10d}"
        )
    lines.append(f"  {'sum':<12} {total / 1e9:9.3f} {100 * total / wall:6.1f}%")
    return lines
