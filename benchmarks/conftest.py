"""Benchmark configuration: every bench prints its reproduction table."""

import os

from repro.campaign import (
    CampaignSpec,
    CampaignStore,
    aggregate_campaign,
    render_report,
    run_campaign,
)


def pytest_configure(config):
    # Benches are single-shot system experiments, not microbenchmarks:
    # one round, one iteration, no warmup.
    config.option.benchmark_warmup = False


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def run_rows(benchmark, tmp_path, entries):
    """Run campaign row entries once, as ``repro table1`` does, into a
    store under ``tmp_path``; print the report and return each variant's
    aggregated points (``"row"`` or ``"row[option=value]"``)."""
    spec = CampaignSpec.from_dict({"name": "bench", "rows": entries})
    store = CampaignStore(os.path.join(str(tmp_path), "results.jsonl"))
    report = run_once(benchmark, run_campaign, spec, store)
    assert report.all_ok, report.summary()
    print("\n" + render_report(spec, store))
    return aggregate_campaign(spec, store)
