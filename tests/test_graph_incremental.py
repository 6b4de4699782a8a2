"""Incremental-analysis equivalence tests.

Two layers of the same contract:

* :meth:`MetricEngine.refreshed` must agree with a from-scratch
  ``MetricEngine`` after arbitrary graph mutations — the dirty-closure
  argument in graphx.py is only sound if no mutation sequence can leave a
  stale bitset behind.
* :func:`refresh_snapshot` must agree with a from-scratch
  ``analyze_dataset`` across real timeline epochs — the reclassification
  set (changed records, flipped concentration thresholds, renamed CA
  hosts) must cover every input a site's classification reads.
"""

import random

import pytest

from repro.core.graph import DependencyGraph, ProviderNode, ServiceType
from repro.core.graphx import MetricEngine
from repro.core.incremental import refresh_snapshot
from repro.core.pipeline import analyze_dataset, dns_display_directory
from repro.engine.epochs import run_timeline
from repro.worldgen.timeline import Timeline, TimelineConfig

# ---------------------------------------------------------------------------
# MetricEngine.refreshed vs a fresh engine, under randomized mutation.
# ---------------------------------------------------------------------------

_SERVICES = (ServiceType.DNS, ServiceType.CDN, ServiceType.CA)


def _random_graph(rng: random.Random) -> DependencyGraph:
    graph = DependencyGraph()
    providers = [
        ProviderNode(f"provider-{i}.example", rng.choice(_SERVICES))
        for i in range(12)
    ]
    for node in providers:
        graph.add_provider(node)
    for i in range(40):
        domain = f"site-{i}.test"
        graph.add_website(domain)
        for node in rng.sample(providers, rng.randrange(1, 4)):
            graph.add_website_dependency(
                domain, node, critical=rng.random() < 0.5
            )
    for _ in range(10):
        consumer, provider = rng.sample(providers, 2)
        graph.add_provider_dependency(
            consumer, provider, critical=rng.random() < 0.5
        )
    return graph


def _mutate(graph: DependencyGraph, rng: random.Random) -> None:
    """One random structural mutation, exercising every mutation method."""
    websites = graph.websites()
    providers = graph.providers()
    op = rng.randrange(7)
    if op == 0 and websites:
        graph.remove_website(rng.choice(websites))
    elif op == 1 and providers:
        graph.remove_provider(rng.choice(providers))
    elif op == 2 and websites and providers:
        domain = rng.choice(websites)
        deps = sorted(graph.website_dependencies(domain), key=str)
        if deps:
            graph.remove_website_dependency(domain, rng.choice(deps))
    elif op == 3 and providers:
        consumer = rng.choice(providers)
        deps = sorted(graph.provider_dependencies(consumer), key=str)
        if deps:
            graph.remove_provider_dependency(consumer, rng.choice(deps))
    elif op == 4:
        domain = f"new-{rng.randrange(10_000)}.test"
        graph.add_website(domain)
        if providers:
            graph.add_website_dependency(
                domain, rng.choice(providers), critical=rng.random() < 0.5
            )
    elif op == 5:
        node = ProviderNode(
            f"new-provider-{rng.randrange(10_000)}.example",
            rng.choice(_SERVICES),
        )
        graph.add_provider(node)
        if rng.random() < 0.7 and providers:
            graph.add_provider_dependency(
                node, rng.choice(providers), critical=rng.random() < 0.5
            )
    elif websites and providers:
        graph.add_website_dependency(
            rng.choice(websites),
            rng.choice(providers),
            critical=rng.random() < 0.5,
        )


def _assert_engine_matches_fresh(graph: DependencyGraph) -> None:
    engine = graph.metric_engine()  # incremental: refreshed from the cache
    fresh = MetricEngine(graph)  # from scratch
    for critical_only in (False, True):
        assert engine.counts(critical_only) == fresh.counts(critical_only)
        for provider in graph.providers():
            assert engine.dependent_websites(
                provider, critical_only
            ) == fresh.dependent_websites(provider, critical_only)


class TestMetricEngineRefreshed:
    @pytest.mark.parametrize("seed", range(10))
    def test_randomized_mutations_match_fresh_engine(self, seed):
        rng = random.Random(seed)
        graph = _random_graph(rng)
        # Prime both criticality modes so refreshed() has bits to carry.
        _assert_engine_matches_fresh(graph)
        for _ in range(15):
            _mutate(graph, rng)
            _assert_engine_matches_fresh(graph)

    def test_remove_everything_then_rebuild(self):
        rng = random.Random(99)
        graph = _random_graph(rng)
        _assert_engine_matches_fresh(graph)
        for domain in list(graph.websites()):
            graph.remove_website(domain)
        for node in list(graph.providers()):
            graph.remove_provider(node)
        _assert_engine_matches_fresh(graph)
        graph.add_website_dependency(
            "phoenix.test",
            ProviderNode("reborn.example", ServiceType.DNS),
            critical=True,
        )
        _assert_engine_matches_fresh(graph)


# ---------------------------------------------------------------------------
# refresh_snapshot vs analyze_dataset across real timeline epochs.
# ---------------------------------------------------------------------------

CFG = TimelineConfig(n_websites=150, seed=11, epochs=4, churn_rate=0.10)


def _assert_snapshots_equivalent(got, want) -> None:
    assert got.year == want.year
    assert got.websites == want.websites
    assert got.interservice_edges == want.interservice_edges
    assert got.dns_display_names == want.dns_display_names
    assert got.concentration_threshold == want.concentration_threshold
    assert got.nameserver_concentrations == want.nameserver_concentrations
    assert set(got.graph.providers()) == set(want.graph.providers())
    # Insertion order is not part of the graph contract — surgery re-adds
    # reclassified sites at the end of the node dict.
    assert set(got.graph.websites()) == set(want.graph.websites())
    assert got.provider_metrics() == want.provider_metrics()
    for provider in want.graph.providers():
        for critical_only in (False, True):
            assert got.graph.dependent_websites(
                provider, critical_only
            ) == want.graph.dependent_websites(provider, critical_only)


@pytest.fixture(scope="module")
def epoch_results():
    return run_timeline(CFG)


class TestRefreshSnapshot:
    def test_refresh_matches_from_scratch_every_epoch(self, epoch_results):
        timeline = Timeline(CFG)
        snapshot = None
        for result in epoch_results:
            display = dns_display_directory(timeline.world(result.epoch))
            scale = timeline.config.world_config(result.epoch).rank_scale
            want = analyze_dataset(
                result.dataset, rank_scale=scale, dns_display_names=display
            )
            if snapshot is None:
                snapshot = want
                continue
            snapshot = refresh_snapshot(
                snapshot,
                result.dataset,
                changed=result.changes.changed,
                dns_display_names=display,
            )
            _assert_snapshots_equivalent(snapshot, want)

    def test_refresh_without_changed_hint_recovers_the_diff(
        self, epoch_results
    ):
        """Omitting ``changed`` falls back to record comparison, which must
        land on the same snapshot."""
        timeline = Timeline(CFG)
        first, second = epoch_results[0], epoch_results[1]
        display0 = dns_display_directory(timeline.world(0))
        display1 = dns_display_directory(timeline.world(1))
        scale = timeline.config.world_config(0).rank_scale
        base = analyze_dataset(
            first.dataset, rank_scale=scale, dns_display_names=display0
        )
        want = analyze_dataset(
            second.dataset, rank_scale=scale, dns_display_names=display1
        )
        got = refresh_snapshot(
            base, second.dataset, dns_display_names=display1
        )
        _assert_snapshots_equivalent(got, want)
