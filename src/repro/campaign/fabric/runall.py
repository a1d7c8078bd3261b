"""``campaign run-all``: reproduce every paper artifact from a cold store.

A *manifest* names the campaign configs that make up the full
reproduction.  ``resolve_run_all`` accepts:

* a directory — uses its ``run_all.json`` manifest when present
  (ordering and selection are explicit), otherwise every ``*.json`` in
  the directory, sorted;
* a manifest file — JSON with a ``configs`` list, resolved relative to
  the manifest's directory;
* a single campaign config — degenerate one-entry run.

Manifest shape (``configs/run_all.json``)::

    {"name": "run-all",
     "description": "every paper artifact",
     "configs": ["figure1.json", "table1.json", "ablations.json",
                 "faults.json"]}

Execution is one fabric run over every config
(:func:`~repro.campaign.fabric.runner.run_campaigns_fabric`): one worker
pool, each distinct simulation run once, and each campaign into its own
``<out-root>/<campaign name>/`` store — the driver lives in the CLI;
this module only resolves and loads *what* to run.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Sequence, Tuple

from repro.campaign.spec import CampaignSpec

__all__ = ["MANIFEST_NAME", "load_campaigns", "resolve_run_all"]

MANIFEST_NAME = "run_all.json"


def _from_manifest(path: str) -> Tuple[str, List[str]]:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    configs = data.get("configs")
    if not isinstance(configs, list) or not configs:
        raise ValueError(
            f"manifest {path} needs a non-empty 'configs' list"
        )
    base = os.path.dirname(path)
    resolved = [
        entry if os.path.isabs(entry) else os.path.join(base, entry)
        for entry in configs
    ]
    return data.get("name", "run-all"), resolved


def resolve_run_all(target: str) -> Tuple[str, List[str]]:
    """Resolve a run-all target to ``(name, [config paths])``.

    Raises ``ValueError`` (with the offending path) on a missing
    target, an empty directory, or a manifest naming absent configs —
    all before any cell runs.
    """
    if os.path.isdir(target):
        manifest = os.path.join(target, MANIFEST_NAME)
        if os.path.exists(manifest):
            name, configs = _from_manifest(manifest)
        else:
            configs = sorted(
                os.path.join(target, entry)
                for entry in os.listdir(target)
                if entry.endswith(".json") and entry != MANIFEST_NAME
            )
            name = os.path.basename(os.path.normpath(target)) or "run-all"
            if not configs:
                raise ValueError(f"no campaign configs (*.json) in {target}")
    elif os.path.exists(target):
        with open(target, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if "configs" in data:
            name, configs = _from_manifest(target)
        else:
            # A single campaign config is a one-entry run-all.
            name, configs = data.get("name", "run-all"), [target]
    else:
        raise ValueError(f"run-all target not found: {target}")
    missing = [path for path in configs if not os.path.exists(path)]
    if missing:
        raise ValueError(f"manifest names missing config(s): {missing}")
    return name, configs


def load_campaigns(
    configs: Sequence[str],
) -> Tuple[List[Tuple[str, CampaignSpec]], List[Tuple[str, str]]]:
    """Load and validate a run-all's configs: ``(campaigns, bad)``.

    ``campaigns`` pairs each good config's path with its spec, in
    manifest order; ``bad`` pairs each config that fails to load or
    validate with the error, so the rest can still run.  Raises
    ``ValueError`` naming both paths when two configs share a campaign
    name: they would share one ``<out-root>/<name>/`` store and ledger.
    """
    campaigns: List[Tuple[str, CampaignSpec]] = []
    bad: List[Tuple[str, str]] = []
    paths: Dict[str, str] = {}
    for path in configs:
        try:
            spec = CampaignSpec.from_json_file(path)
            spec.validate()
        except (OSError, ValueError) as exc:
            bad.append((path, str(exc)))
            continue
        if spec.name in paths:
            raise ValueError(
                f"configs {paths[spec.name]} and {path} share the campaign "
                f"name {spec.name!r}; each campaign needs its own "
                f"<out-root>/{spec.name}/ store"
            )
        paths[spec.name] = path
        campaigns.append((path, spec))
    return campaigns, bad
