"""Campaign infrastructure bench: fabric execution vs the serial path.

Not a paper row — this measures the subsystem itself: store + worker
overhead on a small matrix, and that a warm store makes the re-run
effectively free (the caching contract the campaign design rests on).
"""

import os

from conftest import run_once

from repro.campaign import (
    CampaignSpec,
    CampaignStore,
    aggregate_campaign,
    run_campaign_fabric,
)

_SPEC = {
    "name": "bench",
    "rows": [
        {"row": "bounded", "sizes": [8, 12, 16], "seeds": [0, 1, 2]},
        {"row": "path", "sizes": [64, 256], "seeds": [0, 1, 2, 3]},
    ],
}


def _run_twice(out_dir):
    spec = CampaignSpec.from_dict(_SPEC)
    store = CampaignStore(os.path.join(out_dir, "results.jsonl"))
    cold = run_campaign_fabric(spec, store, workers=2)
    warm = run_campaign_fabric(spec, store, workers=2)
    return spec, store, cold, warm


def test_campaign_cold_then_warm(benchmark, tmp_path):
    spec, store, cold, warm = run_once(benchmark, _run_twice, str(tmp_path))
    print(f"\ncold: {cold.summary()}\nwarm: {warm.summary()}")
    assert cold.ok == cold.total and cold.all_ok
    assert warm.ran == 0 and warm.skipped == warm.total
    points = aggregate_campaign(spec, store)
    assert {p.n for p in points["bounded"]} == {8, 12, 16}
    assert all(p.seeds == 4 for p in points["path"])
