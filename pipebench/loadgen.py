"""The request mix of the ``serve`` workload, and how it is answered.

``serve`` answers a seeded mix of ``repro-serve/1`` requests with the
daemon's own objects (``StoreRegistry`` + ``ServeService``, built as
``repro serve`` builds them) inside the benchmark process: each
request's JSON body is parsed, dispatched by endpoint and its payload
rendered with ``payload_to_json``, as the daemon's HTTP handler does,
without sockets or threads (see README.md for why). Every answer is
kept as a digest and checked, after the timed passes, against
``payload_to_json`` of a reference :class:`QueryEngine` reading the
same store file.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from repro.query.engine import QueryEngine
from repro.query.render import payload_to_json
from repro.serve.protocol import (
    PROTOCOL_SCHEMA,
    BadRequestError,
    classify_error,
    diff_payloads,
    parse_query,
    run_query,
)
from repro.serve.service import ServeService
from repro.store.reader import StoreReader

#: Request mix: kind -> weight.
MIX = (
    ("site", 0.55),
    ("dependents", 0.12),
    ("whatif", 0.12),
    ("top", 0.11),
    ("batch", 0.05),
    ("diff", 0.05),
)

#: Zipf exponent of site popularity (rank-ordered).
ZIPF_S = 0.9


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(1, int(-(-len(ordered) * q // 100))) - 1]


#: Bytes of an answer's digest.
DIGEST_SIZE = 16


def digest(body: bytes) -> bytes:
    return hashlib.blake2b(body, digest_size=DIGEST_SIZE).digest()


# -- the request mix --------------------------------------------------------


@dataclass(frozen=True)
class Request:
    path: str
    body: bytes
    key: str  # canonical request identity, for reference answers


def _zipf_cum_weights(n: int) -> list[float]:
    return list(itertools.accumulate(1.0 / (i + 1) ** ZIPF_S for i in range(n)))


class Mix:
    """Seeded request generator over the sites and providers of stores."""

    def __init__(self, stores: dict[str, Path], seed: int) -> None:
        self.rng = random.Random(seed)
        self.names = sorted(stores)
        self.sites: dict[str, list[str]] = {}
        self.providers: dict[str, list[str]] = {}
        for name in self.names:
            reader = StoreReader.load(str(stores[name]))
            ranked = sorted(range(reader.n_sites), key=reader.site_rank)
            self.sites[name] = [reader.site_domain(s) for s in ranked]
            self.providers[name] = sorted(
                reader.provider_key(p) for p in range(reader.n_providers)
            )
        self.cum = {name: _zipf_cum_weights(len(self.sites[name]))
                    for name in self.names}
        a, b = self.names[0], self.names[-1]
        self.common_sites = [s for s in self.sites[a] if s in set(self.sites[b])]
        self.common_cum = _zipf_cum_weights(len(self.common_sites))
        self.common_providers = sorted(
            set(self.providers[a]) & set(self.providers[b])
        )
        self.kinds = [kind for kind, _ in MIX]
        self.kind_weights = [weight for _, weight in MIX]

    def _site(self, name: str) -> str:
        return self.rng.choices(self.sites[name], cum_weights=self.cum[name])[0]

    def _query(self, name: str, kind: str) -> dict[str, Any]:
        rng = self.rng
        if kind == "site":
            return {"kind": "site", "site": self._site(name)}
        if kind in ("dependents", "whatif"):
            return {"kind": kind, "provider": rng.choice(self.providers[name])}
        return {"kind": "top", "k": rng.choice((5, 10)),
                "mode": rng.choice(("impact", "concentration",
                                    "direct_impact", "direct_concentration")),
                "service": rng.choice(("dns", "cdn", "ca"))}

    def next(self) -> Request:
        rng = self.rng
        kind = rng.choices(self.kinds, weights=self.kind_weights)[0]
        if kind == "batch":
            items = []
            for _ in range(rng.randint(2, 6)):
                name = rng.choice(self.names)
                sub = rng.choices(self.kinds[:4], weights=self.kind_weights[:4])[0]
                items.append({"store": name, "query": self._query(name, sub)})
            doc: dict[str, Any] = {"queries": items}
            path = "/v1/batch"
        elif kind == "diff":
            sub = rng.choice(("site", "dependents", "whatif", "top"))
            if sub == "site":
                query = {"kind": "site", "site": rng.choices(
                    self.common_sites, cum_weights=self.common_cum)[0]}
            elif sub == "top":
                query = self._query(self.names[0], "top")
            else:
                query = {"kind": sub,
                         "provider": rng.choice(self.common_providers)}
            doc = {"store_a": self.names[0], "store_b": self.names[-1],
                   "query": query}
            path = "/v1/diff"
        else:
            name = rng.choice(self.names)
            doc = {"store": name, "query": self._query(name, kind)}
            path = "/v1/query"
        key = path + " " + json.dumps(doc, sort_keys=True)
        return Request(path, json.dumps(doc).encode("utf-8"), key)


def repeat_share(requests: list[Request]) -> float:
    """Share of requests whose key already appeared earlier in the list."""
    seen: set[str] = set()
    repeats = 0
    for request in requests:
        if request.key in seen:
            repeats += 1
        seen.add(request.key)
    return repeats / len(requests) if requests else 0.0


def reference_body(engines: dict[str, QueryEngine], request: Request) -> bytes:
    """The daemon's answer, built from reference engines."""
    doc = json.loads(request.body)
    if request.path == "/v1/query":
        payload = run_query(engines[doc["store"]], parse_query(doc["query"]))
    elif request.path == "/v1/batch":
        payload = {
            "schema": PROTOCOL_SCHEMA,
            "results": [
                {"status": 200, "payload": run_query(
                    engines[item["store"]], parse_query(item["query"]))}
                for item in doc["queries"]
            ],
        }
    else:
        query = parse_query(doc["query"])
        a = run_query(engines[doc["store_a"]], query)
        b = run_query(engines[doc["store_b"]], query)
        payload = {
            "schema": PROTOCOL_SCHEMA,
            "query": query.to_wire(),
            "stores": {"a": doc["store_a"], "b": doc["store_b"]},
            "a": a,
            "b": b,
            "delta": diff_payloads(query, a, b),
        }
    return payload_to_json(payload).encode("utf-8")


# -- answering ---------------------------------------------------------------


def answer(service: ServeService, request: Request) -> tuple[int, bytes]:
    """``(status, body)`` of one request, as the daemon's handler makes
    them: parse the body, dispatch by endpoint, map a raised error to
    its status, render with ``payload_to_json``."""
    try:
        doc = json.loads(request.body)
        if not isinstance(doc, dict):
            raise BadRequestError("request body must be a JSON object")
        if request.path == "/v1/query":
            payload = service.answer(doc)
        elif request.path == "/v1/batch":
            payload = service.answer_batch(doc)
        elif request.path == "/v1/diff":
            payload = service.answer_diff(doc)
        else:
            raise BadRequestError.with_status(
                404, f"no such endpoint {request.path!r}")
        status = 200
    except Exception as exc:  # the handler's boundary: any error is a status
        status, payload = classify_error(exc)
    return status, payload_to_json(payload).encode("utf-8")


def check(stores: dict[str, Path], requests: list[Request],
          statuses: Sequence[int], digests: bytes) -> list[str]:
    """Every answer is a 200 whose body equals the reference engine's
    bytes. Answer ``j`` (status ``statuses[j]``, digest
    ``digests[16 * j:16 * j + 16]``) answers ``requests[j % len(requests)]``."""
    engines = {name: QueryEngine(StoreReader.load(str(path)))
               for name, path in stores.items()}
    expected: dict[str, bytes] = {}
    problems = []
    failed = sum(1 for status in statuses if status != 200)
    if not statuses or failed:
        problems.append(f"{failed} of {len(statuses)} requests failed")
    mismatches = 0
    for j, status in enumerate(statuses):
        if status != 200:
            continue
        request = requests[j % len(requests)]
        if request.key not in expected:
            expected[request.key] = digest(reference_body(engines, request))
        if digests[DIGEST_SIZE * j:DIGEST_SIZE * (j + 1)] != expected[request.key]:
            mismatches += 1
    if mismatches:
        problems.append(f"{mismatches} answers differ from the reference")
    return problems


def lru_hit_ratio(statz: dict[str, Any]) -> float:
    """Payload-LRU hits over lookups, across the daemon's stores."""
    hits = lookups = 0
    for store in statz["registry"]["per_store"].values():
        cache = store.get("cache") or {}
        hits += cache.get("hits", 0)
        lookups += cache.get("hits", 0) + cache.get("misses", 0)
    return hits / lookups if lookups else 0.0
