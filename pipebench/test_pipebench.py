"""Self-tests for the benchmark, at toy sizes.

Run from the checkout root::

    python -m pytest pipebench -q

Each workload runs once at a toy size and must print every metric the
benchmark declares, with its unit; a corrupted output must fail its
check (exit code 1); and without the program beside it the benchmark
must exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

TOY = workloads.Sizes(
    campaign_n=150, epochs_n=150, epochs=3, serve_n=150,
    min_passes=2, setup_repeats=2, serve_setup_repeats=2, pure_repeats=2,
    serve_requests=300,
)


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


def _strict(constant: str):
    raise ValueError(f"{constant} in the result line is not JSON")


def _run(capsys, workload: str, trace: int = 0, seconds: str = "2"):
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds",
                   seconds, "--trace", str(trace)], sizes=TOY)
    out = capsys.readouterr().out
    return rc, out, json.loads(out.strip().splitlines()[-1],
                               parse_constant=_strict)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_end_to_end_metric_with_its_unit(capsys, workload):
    rc, out, result = _run(capsys, workload)
    assert rc == 0, out
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = _declared("end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in declared.items():
        assert f"{name} = " in out and out.split(f"{name} = ")[1].split("\n")[0].endswith(unit)


@pytest.mark.parametrize("workload", ["campaign", "serve"])
def test_traced_run_prints_every_per_layer_metric(capsys, workload):
    rc, out, result = _run(capsys, workload, trace=1)
    assert rc == 0, out
    declared = _declared("per_layer")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert "per-layer self time" in out
    wall = result["metrics"]["trace.wall_s"]["value"]
    layer_sum = float(out.split("\n  sum")[1].split()[0])
    assert layer_sum == pytest.approx(wall, rel=0.01)
    if workload == "serve":
        assert result["metrics"]["query.lru_hit_ratio"]["value"] > 0
        assert result["metrics"]["serve.answer_s"]["value"] > 0


def test_pinned_digest_rejects_other_bytes():
    pins = json.loads(workloads.PINS.read_text())["campaign"]
    assert workloads.check_campaign_digest(pins["seed"], pins["n"], "{}")
    assert not workloads.check_campaign_digest(pins["seed"] + 1, pins["n"], "{}")


def test_corrupted_store_fails_the_top_check():
    world = workloads.worldgen_world.build_world(
        workloads.WorldConfig(n_websites=150, seed=5, year=2016))
    dataset = workloads.engine.run_campaign(world=world)
    snapshot = workloads.pipeline.analyze_dataset(
        dataset, rank_scale=world.config.rank_scale)
    blob = workloads.store_compile.compile_snapshot(snapshot, "0" * 64, 150)
    assert workloads.check_store_tops(blob, snapshot, "0" * 64) == []
    dataset.websites.pop(0)
    other = workloads.pipeline.analyze_dataset(
        dataset, rank_scale=world.config.rank_scale)
    assert workloads.check_store_tops(blob, other, "0" * 64)


def test_corrupted_epoch_dataset_fails(capsys, monkeypatch):
    shipped = workloads.engine.run_timeline

    def corrupting(*args, **kwargs):
        results = shipped(*args, **kwargs)
        websites = results[-1].dataset.websites
        websites[0], websites[1] = websites[1], websites[0]
        return results

    monkeypatch.setattr(workloads.engine, "run_timeline", corrupting)
    rc, out, result = _run(capsys, "epochs")
    assert rc == 1 and result["correct"] is False
    assert "incremental dataset != from-scratch campaign" in out


def test_corrupted_serve_answer_fails(capsys, monkeypatch):
    shipped = workloads.loadgen.reference_body
    monkeypatch.setattr(workloads.loadgen, "reference_body",
                        lambda engines, request: shipped(engines, request) + b" ")
    rc, out, result = _run(capsys, "serve")
    assert rc == 1 and result["correct"] is False
    assert "answers differ from the reference" in out


def test_service_answering_errors_fails_the_check(capsys, monkeypatch):
    shipped = workloads.loadgen.answer

    def misrouted(service, request):
        wrong = workloads.loadgen.Request("/v1/nope", request.body,
                                          request.key)
        return shipped(service, wrong)

    monkeypatch.setattr(workloads.loadgen, "answer", misrouted)
    rc, out, result = _run(capsys, "serve")
    assert rc == 1 and result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert "requests failed" in out


@pytest.mark.xfail(strict=True, reason=(
    "incremental remeasurement keeps novarank9254.com's epoch-1 CDN SOA "
    "after its CNAME target's DNS changed back; see README.md"))
def test_epochs_check_finds_the_seed_9_incremental_defect():
    """The epochs check at n=1000 (the size it was defined with), seed 9:
    the last incremental epoch differs from a from-scratch campaign."""
    config = workloads.TimelineConfig(n_websites=1000, seed=9, epochs=7,
                                      churn_rate=0.10)
    timeline = workloads.Timeline(config)
    results = workloads.engine.run_timeline(config, timeline=timeline)
    scratch = workloads.engine.run_campaign(world=timeline.world(6))
    assert (workloads.mio.dataset_to_json(results[-1].dataset)
            == workloads.mio.dataset_to_json(scratch))


def test_without_the_program_exits_nonzero_and_prints_no_result():
    bare = ROOT / ".pipebench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "pipebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "pipebench/run.py", "--workload", "campaign",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
