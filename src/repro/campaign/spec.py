"""Declarative campaign specifications.

A campaign is a JSON-loadable description of a sweep matrix: which
Table 1 rows to run, at which sizes, over which seeds, with which
options.  It expands two ways: :meth:`CampaignSpec.jobs` yields one
:class:`JobSpec` per (row, size, seed) cell, and
:meth:`CampaignSpec.job_blocks` yields one *seed-block* JobSpec per
(row, size) — the unit a sharded worker executes so all seeds of a
cell group share one prepared engine.  Either way the durable
identity is the per-(row, size, seed) content-hash key
(:meth:`JobSpec.cell_keys`), unchanged from single-seed campaigns, so
existing stores resume seamlessly and a half-finished block re-runs
only its missing seeds.

Example config (``configs/table1.json``)::

    {
      "name": "table1",
      "description": "Full Table 1 matrix",
      "defaults": {"seeds": [0, 1, 2]},
      "rows": [
        {"row": "local", "sizes": [8, 16, 32]},
        {"row": "path", "sizes": [64, 256], "seeds": [0, 1, 2, 3]}
      ]
    }

Sizes and seeds omitted from a row entry fall back first to the
campaign-level ``defaults`` block, then to the registry's per-row
defaults (which match the serial Table 1 runners).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.sim.config import normalize_execution_options

__all__ = ["JobSpec", "RowPlan", "CampaignSpec", "job_key"]

# Bump when the meaning of a job's stored payload changes incompatibly
# (e.g. a row's recorded extras change); part of the content hash so
# stale store entries never alias new runs.
#
# Deliberately NOT bumped for the PR-5 execution-option normalization:
# bumping would re-key every existing store.  One narrow migration note
# instead: a pre-PR-5 store built from a config that *explicitly* set an
# execution option to its default (e.g. {"resolution": "bitmask"}) was
# keyed with that option embedded; such cells now normalize to the
# option-free key and will recompute once (the old records stay in the
# append-only store, simply unreferenced).  Configs that never spelled
# out default options — including every config in this repo — resume
# unchanged.
SPEC_VERSION = 2


def _canonical(data: Dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def job_key(job_dict: Dict) -> str:
    """Stable content hash of a job description (dict-order independent)."""
    payload = dict(job_dict)
    payload["_v"] = SPEC_VERSION
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()[:24]


class JobSpec:
    """One unit of campaign work: a (row, size) cell over a seed block.

    Most JobSpecs carry a single seed (one cell); the sharded runner
    dispatches multi-seed blocks so workers amortize engine setup via
    :func:`repro.campaign.registry.execute_cell_block`.  Storage
    identity is always per cell: :meth:`cell_keys` hashes each
    (row, size, seed) with the *legacy single-seed payload shape*, so
    blocked and single-seed campaigns share one cache.

    Construct with ``seed=`` (one cell, the historical form) or
    ``seeds=`` (a block); :meth:`from_dict` accepts both payload shapes.
    """

    __slots__ = ("row", "size", "seeds", "options")

    def __init__(
        self,
        row: str,
        size: int,
        seed: Optional[int] = None,
        options: Tuple[Tuple[str, object], ...] = (),
        seeds: Optional[Sequence[int]] = None,
    ) -> None:
        if (seed is None) == (seeds is None):
            raise ValueError("pass exactly one of seed= or seeds=")
        self.row = row
        self.size = int(size)
        self.seeds: Tuple[int, ...] = (
            (int(seed),) if seeds is None else tuple(int(s) for s in seeds)
        )
        if not self.seeds:
            raise ValueError("a job needs at least one seed")
        self.options = tuple(options)

    @property
    def seed(self) -> int:
        """The single seed of a one-cell job (blocks have no one seed)."""
        if len(self.seeds) != 1:
            raise ValueError(
                f"job is a {len(self.seeds)}-seed block; use .seeds"
            )
        return self.seeds[0]

    @property
    def options_dict(self) -> Dict[str, object]:
        return dict(self.options)

    def with_seeds(self, seeds: Sequence[int]) -> "JobSpec":
        return JobSpec(
            row=self.row, size=self.size, seeds=seeds, options=self.options
        )

    def cells(self) -> Iterator["JobSpec"]:
        """The per-(row, size, seed) jobs this block covers, in order."""
        for seed in self.seeds:
            yield JobSpec(
                row=self.row, size=self.size, seed=seed, options=self.options
            )

    def cell_keys(self) -> List[str]:
        """Per-cell content-hash keys (single-seed payload shape), so a
        block's cells alias the records a single-seed campaign wrote."""
        return [cell.key() for cell in self.cells()]

    def to_dict(self) -> Dict:
        data: Dict = {"row": self.row, "size": self.size}
        if len(self.seeds) == 1:
            # Keep the historical single-seed shape: content hashes (and
            # the stores keyed by them) must not change under blocking.
            data["seed"] = self.seeds[0]
        else:
            data["seeds"] = list(self.seeds)
        if self.options:
            data["options"] = dict(self.options)
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "JobSpec":
        if ("seed" in data) == ("seeds" in data):
            raise ValueError(
                f"job payload needs exactly one of 'seed'/'seeds': {data!r}"
            )
        return cls(
            row=data["row"],
            size=int(data["size"]),
            seed=data.get("seed"),
            seeds=data.get("seeds"),
            options=tuple(sorted((data.get("options") or {}).items())),
        )

    def key(self) -> str:
        return job_key(self.to_dict())

    def _as_tuple(self):
        return (self.row, self.size, self.seeds, self.options)

    def __eq__(self, other) -> bool:
        if not isinstance(other, JobSpec):
            return NotImplemented
        return self._as_tuple() == other._as_tuple()

    def __hash__(self) -> int:
        return hash(self._as_tuple())

    def __repr__(self) -> str:
        return (
            f"JobSpec(row={self.row!r}, size={self.size}, "
            f"seeds={self.seeds}, options={self.options})"
        )


@dataclass
class RowPlan:
    """One row entry of a campaign: a registry row × sizes × seeds."""

    row: str
    sizes: Optional[Tuple[int, ...]] = None
    seeds: Optional[Tuple[int, ...]] = None
    options: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        data: Dict = {"row": self.row}
        if self.sizes is not None:
            data["sizes"] = list(self.sizes)
        if self.seeds is not None:
            data["seeds"] = list(self.seeds)
        if self.options:
            data["options"] = dict(self.options)
        return data


@dataclass
class CampaignSpec:
    """A named, fully declarative experiment sweep."""

    name: str
    rows: List[RowPlan]
    description: str = ""
    default_sizes: Optional[Tuple[int, ...]] = None
    default_seeds: Optional[Tuple[int, ...]] = None

    @classmethod
    def from_dict(cls, data: Dict) -> "CampaignSpec":
        if "name" not in data:
            raise ValueError("campaign config needs a 'name'")
        raw_rows = data.get("rows")
        if not raw_rows:
            raise ValueError("campaign config needs a non-empty 'rows' list")
        defaults = data.get("defaults") or {}
        unknown_defaults = sorted(set(defaults) - {"sizes", "seeds"})
        if unknown_defaults:
            raise ValueError(
                f"'defaults' has unknown keys {unknown_defaults}; "
                f"expected 'sizes' and/or 'seeds'"
            )
        for axis in ("sizes", "seeds"):
            if axis in defaults and not defaults[axis]:
                raise ValueError(f"'defaults' has empty {axis!r}")
        rows = []
        for entry in raw_rows:
            if isinstance(entry, str):
                entry = {"row": entry}
            if "row" not in entry:
                raise ValueError(f"row entry missing 'row': {entry!r}")
            unknown_keys = sorted(
                set(entry) - {"row", "sizes", "seeds", "options"}
            )
            if unknown_keys:
                raise ValueError(
                    f"row {entry['row']!r} has unknown keys {unknown_keys}; "
                    f"expected 'sizes', 'seeds', 'options'"
                )
            for axis in ("sizes", "seeds"):
                if axis in entry and not entry[axis]:
                    raise ValueError(
                        f"row {entry['row']!r} has empty {axis!r}; drop the "
                        f"key to use defaults or remove the row entirely"
                    )
            # Coerce axes to int at parse time: job keys are content
            # hashes, so 8.0 vs 8 would silently split cache identities
            # between the parent and the worker's round-tripped payload.
            #
            # Execution options are validated here — an invalid mode
            # (e.g. "resolution": "quantum") fails at config load with the
            # allowed values, before any cell runs — and normalized to
            # their minimal shape: an option explicitly set to its
            # default hashes identically to an omitted one, so such a
            # config aliases the same stored cells.
            try:
                options = normalize_execution_options(
                    dict(entry.get("options") or {})
                )
            except ValueError as exc:
                raise ValueError(
                    f"row {entry['row']!r} has a bad execution option: {exc}"
                ) from None
            rows.append(
                RowPlan(
                    row=entry["row"],
                    sizes=(
                        tuple(int(s) for s in entry["sizes"])
                        if "sizes" in entry else None
                    ),
                    seeds=(
                        tuple(int(s) for s in entry["seeds"])
                        if "seeds" in entry else None
                    ),
                    options=options,
                )
            )
        return cls(
            name=data["name"],
            rows=rows,
            description=data.get("description", ""),
            default_sizes=(
                tuple(int(s) for s in defaults["sizes"])
                if "sizes" in defaults else None
            ),
            default_seeds=(
                tuple(int(s) for s in defaults["seeds"])
                if "seeds" in defaults else None
            ),
        )

    @classmethod
    def from_json_file(cls, path: str) -> "CampaignSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def to_dict(self) -> Dict:
        data: Dict = {"name": self.name, "rows": [r.to_dict() for r in self.rows]}
        if self.description:
            data["description"] = self.description
        defaults: Dict = {}
        if self.default_sizes is not None:
            defaults["sizes"] = list(self.default_sizes)
        if self.default_seeds is not None:
            defaults["seeds"] = list(self.default_seeds)
        if defaults:
            data["defaults"] = defaults
        return data

    def resolve_sizes_seeds(
        self, plan: RowPlan, registry_sizes: Sequence[int], registry_seeds: Sequence[int]
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        sizes = plan.sizes if plan.sizes is not None else (
            self.default_sizes if self.default_sizes is not None
            else tuple(registry_sizes)
        )
        seeds = plan.seeds if plan.seeds is not None else (
            self.default_seeds if self.default_seeds is not None
            else tuple(registry_seeds)
        )
        return tuple(sizes), tuple(seeds)

    def job_blocks(self) -> Iterator[JobSpec]:
        """Expand the matrix to seed-block jobs — one per (row, size) —
        in deterministic order.  The sharded runner dispatches these so
        workers batch a whole cell group on one prepared engine.

        Options are normalized *here*, at the identity-computation
        layer (not only at the ``from_dict`` door), so a
        programmatically built spec with an execution option explicitly
        set to its default still hashes — and resumes — identically to
        the option-free spec."""
        from repro.campaign.registry import get_row

        for plan in self.rows:
            definition = get_row(plan.row)
            sizes, seeds = self.resolve_sizes_seeds(
                plan, definition.default_sizes, definition.default_seeds
            )
            options = tuple(sorted(
                normalize_execution_options(plan.options).items()
            ))
            for size in sizes:
                yield JobSpec(
                    row=plan.row, size=int(size),
                    seeds=tuple(int(seed) for seed in seeds),
                    options=options,
                )

    def jobs(self) -> Iterator[JobSpec]:
        """Expand the matrix to single-seed cells, in deterministic
        order (the per-cell view of :meth:`job_blocks`)."""
        for block in self.job_blocks():
            yield from block.cells()

    def validate(self) -> None:
        """Raise ``ValueError`` on unknown rows or invalid execution
        options (before any work starts) — a typo'd mode fails here with
        the allowed values, not mid-run inside the engine."""
        from repro.campaign.registry import ROW_REGISTRY

        unknown = sorted(
            {plan.row for plan in self.rows} - set(ROW_REGISTRY)
        )
        if unknown:
            raise ValueError(
                f"unknown campaign rows {unknown}; "
                f"available: {sorted(ROW_REGISTRY)}"
            )
        from repro.sim.config import validate_execution_options

        for plan in self.rows:
            try:
                validate_execution_options(plan.options)
            except ValueError as exc:
                raise ValueError(
                    f"row {plan.row!r} has a bad execution option: {exc}"
                ) from None
            # Row-specific honorability: a custom-cell row that cannot
            # consume an option must refuse the campaign up front —
            # otherwise every one of its cells would fail mid-run under
            # an identity that can never be satisfied.  (The raised
            # ExecutionConfigError is a ValueError, so existing config-
            # error handling catches it.)
            from repro.campaign.registry import check_row_supports_options

            check_row_supports_options(plan.row, plan.options)
