"""Append-only JSONL result store: the campaign's cache and ledger.

Each line is one record::

    {"key": <content hash of the job>, "job": {...}, "status": "ok",
     "result": {...cell measurements...}, "elapsed": 0.12, "ts": ...}

Records are keyed by :func:`repro.campaign.spec.job_key`, a content
hash of the job description, so the store doubles as a cache: a
re-run of the same campaign finds every cell already present and
computes nothing.  Failed cells are recorded too (``status`` of
``"error"``, ``"timeout"``, or the fabric's ``"quarantined"``) and are
retried on the next run — only ``"ok"`` records count as completed.

Crash safety: each store has one writer (the serial runner, or the
campaign fabric's parent, which receives its workers' records), and
every record is written as one ``write()`` call of a complete line and
fsynced before ``append`` returns, so a writer killed mid-append can
tear at most the final line.  Reading skips such torn or truncated
lines with a ``RuntimeWarning`` (the cell is simply recomputed), and
bulk rewrites (``compact``) go through a temp file + ``os.replace`` so
the canonical store is never observable half-written.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from typing import Dict, Iterator, List, Optional, Sequence, Set

import time

__all__ = ["CampaignStore", "make_record"]

STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"
#: Written by the campaign fabric for cells of a block that exhausted
#: its retry budget.  A non-``ok`` status, so the next run retries them.
STATUS_QUARANTINED = "quarantined"


def make_record(
    key: str,
    job: Dict,
    status: str,
    result: Optional[Dict] = None,
    error: Optional[str] = None,
    elapsed: float = 0.0,
) -> Dict:
    record = {
        "key": key,
        "job": job,
        "status": status,
        "elapsed": round(elapsed, 6),
        "ts": round(time.time(), 3),
    }
    if result is not None:
        record["result"] = result
    if error is not None:
        record["error"] = error
    return record


def _encode(record: Dict) -> str:
    return json.dumps(record, sort_keys=True) + "\n"


class CampaignStore:
    """One campaign's results on disk (``<out>/results.jsonl``)."""

    def __init__(self, path: str) -> None:
        self.path = path

    # -- reading ------------------------------------------------------------

    def iter_records(self) -> Iterator[Dict]:
        """Yield records in file order, skipping corrupt lines.

        A line can be torn (no trailing newline — a writer died
        mid-``write``) or unparseable (a torn tail that a later append
        continued).  Either way the record is dropped with a
        ``RuntimeWarning`` naming the store, and the affected cell is
        simply recomputed on the next run; one bad line never poisons
        the rest of the ledger.
        """
        if not os.path.exists(self.path):
            return
        skipped = 0
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                torn = not line.endswith("\n")
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    skipped += 1
                    continue
                if torn or not isinstance(record, dict) or "key" not in record:
                    # A torn-but-parseable tail could be a truncated
                    # record that still decodes (e.g. a clipped number);
                    # trust only complete lines.
                    skipped += 1
                    continue
                yield record
        if skipped:
            warnings.warn(
                f"campaign store {self.path}: skipped {skipped} corrupt "
                f"line(s) (torn by a killed writer); the affected cells "
                f"will be recomputed",
                RuntimeWarning,
                stacklevel=2,
            )

    def load(self) -> Dict[str, Dict]:
        """Latest record per key (later lines win)."""
        records: Dict[str, Dict] = {}
        for record in self.iter_records():
            records[record["key"]] = record
        return records

    def completed_keys(self) -> Set[str]:
        return {
            key
            for key, record in self.load().items()
            if record.get("status") == STATUS_OK
        }

    def ok_records(self) -> List[Dict]:
        return [
            record
            for record in self.load().values()
            if record.get("status") == STATUS_OK
        ]

    def line_count(self) -> int:
        return sum(1 for _ in self.iter_records())

    # -- writing ------------------------------------------------------------

    def _ensure_dir(self) -> None:
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)

    def append(self, record: Dict) -> None:
        self.append_many([record])

    def append_many(self, records: Sequence[Dict]) -> None:
        """Append records, one complete line per ``write()`` call, with
        a single flush+fsync for the batch.

        One write per line (not one buffered write of the batch) keeps
        the torn-line blast radius at a single record even if the
        process dies mid-batch; the batched fsync is what makes block
        appends cheap.
        """
        if not records:
            return
        self._ensure_dir()
        with open(self.path, "a", encoding="utf-8") as handle:
            for record in records:
                handle.write(_encode(record))
            handle.flush()
            os.fsync(handle.fileno())

    def rewrite(self, records: Sequence[Dict]) -> None:
        """Atomically replace the store's contents with ``records``.

        Writes a sibling temp file, fsyncs it, and ``os.replace``\\ s it
        over the store, so every concurrent (and future) reader sees
        either the old complete ledger or the new one — never a
        half-written file.
        """
        self._ensure_dir()
        directory = os.path.dirname(self.path) or "."
        fd, temp_path = tempfile.mkstemp(
            dir=directory, prefix=".store-", suffix=".jsonl.tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                for record in records:
                    handle.write(_encode(record))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_path, self.path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise

    def compact(self) -> Dict[str, int]:
        """Dedupe the ledger down to one record per key, in place.

        Keeps exactly the record :meth:`load` would resolve for each key
        (later lines win), preserving first-appearance order, via the
        atomic :meth:`rewrite`.  Returns ``{"before": .., "after": ..}``
        line counts.
        """
        records = self.load()
        before = self.line_count()
        self.rewrite(list(records.values()))
        return {"before": before, "after": len(records)}
