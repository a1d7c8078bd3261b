"""One measured process of the benchmark (started by ``run.py``).

``child.py cli RSS_FILE TRACE_DIR ARGS...``
    runs ``repro.cli.main(ARGS)`` and appends this process's own peak
    RSS in MB (fabric workers excluded) as one line to RSS_FILE.  Unless
    TRACE_DIR is ``-`` the layer tracer is installed, and the spans of
    this process and of every fabric worker are written into TRACE_DIR.
``child.py batch OUT SHIFT [TRACE_DIR]``
    runs the ``many_seed_batch`` batches and writes timestamps, digests
    and checks to the JSON file OUT; with TRACE_DIR it also runs under
    the tracer and checks every batch against the serial engine.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _cli(rss_file: str, trace_dir: str, argv) -> int:
    import repro.cli

    tracer = None
    if trace_dir != "-":
        from tracer import Tracer, install

        tracer = Tracer(trace_dir)
        install(tracer)
    try:
        return repro.cli.main(argv)
    finally:
        if tracer is not None:
            tracer.dump()
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        with open(rss_file, "a", encoding="utf-8") as handle:
            handle.write(f"{peak}\n")


def _batch(out: str, shift: int, trace_dir: str = None) -> int:
    import frames
    from repro.sim import numpy_available

    if not numpy_available():
        raise SystemExit("many_seed_batch needs numpy: the batches measure "
                         "the numpy-resolved trial-SoA engine")
    tracer = None
    if trace_dir:
        from tracer import Tracer, install

        tracer = Tracer(trace_dir)
        install(tracer)
    specs = [batch.build(shift) for batch in frames.BATCHES]
    first = time.time()
    results = [frames.run_batch(spec) for spec in specs]
    report = {"first_batch_ts": first, "batches": {}}
    for batch, batch_results in zip(frames.BATCHES, results):
        reasons = sorted({str(r.soa_reason) for r in batch_results})
        if batch.name in frames.SOA_REQUIRED and reasons != ["ok"]:
            raise SystemExit(
                f"batch {batch.name} left the trial-SoA engine "
                f"(soa_reason {reasons}); refusing to measure a fallback"
            )
        report["batches"][batch.name] = {
            "trials": len(batch_results),
            "digest": frames.digest(batch_results),
            "violations": frames.frame_violations(batch, batch_results),
        }
    if tracer is not None:
        tracer.suspended += 1
        check_start = time.time()
        for batch, batch_results in zip(frames.BATCHES, results):
            serial = frames.run_batch(batch.build(shift, lockstep=False))
            report["batches"][batch.name]["serial_mismatches"] = sum(
                frames.trial_record(x) != frames.trial_record(y)
                for x, y in zip(batch_results, serial)
            )
        tracer.suspended -= 1
        report["check_s"] = time.time() - check_start
        tracer.dump()
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


def main(argv) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        return _cli(rest[0], rest[1], rest[2:])
    if mode == "batch":
        return _batch(rest[0], int(rest[1]), *rest[2:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
