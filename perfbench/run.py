"""The repository benchmark: reproduce the paper, scale Table 1, batch seeds.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_cold --seed 0 --seconds 45 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

* ``paper_cold`` -- ``campaign run-all configs/`` into an empty out-root
  with two fabric workers, then ``campaign report`` for each campaign;
* ``table1_x4`` -- every Table 1 row at 4x its default sizes
  (``perfbench/configs/table1_x4.json``), same fabric, then a report;
* ``many_seed_batch`` -- three SR-frame batches through ``run_trials`` on
  the lock-step engines (``perfbench/frames.py``).

``--seed`` shifts every seed list of the workload.  With ``--trace 0`` the
workload is repeated while another repetition fits in ``--seconds`` and
the end-to-end metrics are medians over repetitions; campaign workloads
also start the CLI a few extra times up to its first ``run_started``
ledger event, as extra ``setup_s`` samples.  With ``--trace 1`` one
untraced and one traced repetition give the per-layer metrics.  Every
repetition checks its outputs; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINNED = BENCH / "pinned.json"
CHILD = BENCH / "child.py"

DEFAULT_SEED = 0
SETUP_PROBES = 5
PROCESS_TIMEOUT = 150.0
#: Aggregated per-size flags that state the paper's checked properties
#: (Theorem 1 lower bound, Theorem 2 reduction, Theorem 21's 2n slots).
PROPERTY_FLAGS = ("lb_ok", "bound_holds", "slots_2n_ok")
#: The fields of an aggregated point that ``campaign report`` renders from.
POINT_FIELDS = (
    "label", "n", "max_degree", "diameter", "seeds", "delivered",
    "time_median", "max_energy_median", "mean_energy_median", "extras",
)


class BenchError(RuntimeError):
    pass


@dataclasses.dataclass
class Proc:
    """One finished child process."""

    start_ts: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(SRC), str(BENCH)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of ``proc``'s process group and wait for it.

    Descendants re-parented to this process (a subreaper) are waited for
    here; elsewhere they are the init process's to reap.
    """
    _kill_group(proc)
    proc.wait()
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def _become_subreaper() -> None:
    """Adopt orphaned descendants, so a killed CLI's fabric workers are
    waited for here (Linux only; elsewhere a no-op)."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _timeout(signum, frame):
    raise BenchError(f"a child process ran longer than {PROCESS_TIMEOUT}s")


def run_process(argv: List[str], log: Path) -> Proc:
    """Run ``argv`` to completion in its own process group and return its
    wall time, CPU time and peak RSS (its own and its waited-for
    children's)."""
    with open(log, "ab") as out:
        start_ts = time.time()
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=subprocess.STDOUT, env=child_env(),
            cwd=str(ROOT), start_new_session=True,
        )
        previous = signal.signal(signal.SIGALRM, _timeout)
        signal.alarm(int(PROCESS_TIMEOUT))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            _stop_group(proc)
        wall = time.perf_counter() - start
    if proc.returncode != 0:
        tail = log.read_text(errors="replace")[-2000:]
        raise BenchError(
            f"exit {proc.returncode}: {' '.join(argv)}\n{tail}"
        )
    return Proc(
        start_ts, wall, usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
    )


def read_ledger(path: Path) -> List[Dict]:
    if not path.exists():
        return []
    events = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.endswith("\n"):
                events.append(json.loads(line))
    return events


def first_run_started(ledger: Path) -> Optional[float]:
    for event in read_ledger(ledger):
        if event["ev"] == "run_started":
            return event["ts"]
    return None


def fabric_metrics(ledgers: List[List[Dict]]) -> Dict[str, float]:
    """Dispatch metrics of one run, from its events ledgers."""
    blocks: List[float] = []
    gaps: List[float] = []
    capacity = 0.0
    retries = quarantined = 0
    for events in ledgers:
        workers = 1
        free_since: Dict[int, float] = {}
        for event in events:
            ev = event["ev"]
            if ev == "run_started":
                workers = event.get("workers", 1)
            elif ev == "block_completed":
                blocks.append(event["elapsed"])
                free_since[event["worker"]] = event["ts"]
            elif ev == "block_dispatched":
                done = free_since.pop(event["worker"], None)
                if done is not None:
                    gaps.append(event["ts"] - done)
            elif ev == "run_completed":
                capacity += workers * event["elapsed"]
                retries += event.get("retries", 0)
                quarantined += event.get("quarantined", 0)
    return {
        "fabric.blocks": len(blocks),
        "fabric.block_s_p50": statistics.median(blocks) if blocks else 0.0,
        "fabric.block_s_max": max(blocks, default=0.0),
        "fabric.busy_frac": sum(blocks) / capacity if capacity else 0.0,
        # A mean, not a median: ledger timestamps have 1 ms resolution
        # and most gaps are shorter, so the median reads 0.
        "fabric.dispatch_gap_s": statistics.fmean(gaps) if gaps else 0.0,
        "fabric.retries": retries,
        "fabric.quarantined": quarantined,
    }


def _digest(data) -> str:
    text = json.dumps(data, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


@dataclasses.dataclass
class Rep:
    """One repetition of a workload."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float
    attempted: int
    failed: int
    digests: Dict[str, str]
    #: Peak RSS of any process of the repetition, fabric workers included.
    tree_rss_mb: float = 0.0
    report_s: float = 0.0
    ledgers: Optional[List[List[Dict]]] = None


class Workload:
    name = "?"

    def __init__(self, shift: int, workers: int) -> None:
        self.shift = shift
        self.workers = workers
        self.pinned = json.loads(PINNED.read_text())[self.name]

    def prepare(self) -> None:
        """Write the inputs of this seed under the work directory."""

    def run(self, trace_dir: Optional[Path] = None) -> Rep:
        raise NotImplementedError

    def setup_samples(self) -> List[float]:
        return []

    def replay(self):
        """The graph, model and run to record for the resolution replay."""
        raise NotImplementedError

    def digest_mismatches(self, digests: Dict[str, str]) -> int:
        if self.shift != DEFAULT_SEED:
            return 0
        return sum(
            digests.get(key) != value for key, value in self.pinned.items()
        )


class CampaignWorkload(Workload):
    """``campaign run-all`` into an empty out-root, then one
    ``campaign report`` per campaign."""

    replay_row = "decay"
    replay_size = 0

    def source_configs(self) -> List[Path]:
        raise NotImplementedError

    def prepare(self) -> None:
        from repro.campaign import CampaignSpec, get_row

        config_dir = WORK / "configs"
        config_dir.mkdir(parents=True)
        self.configs: List[Path] = []
        for source in self.source_configs():
            spec = CampaignSpec.from_json_file(str(source))
            for plan in spec.rows:
                row = get_row(plan.row)
                sizes, seeds = spec.resolve_sizes_seeds(
                    plan, row.default_sizes, row.default_seeds
                )
                plan.sizes = sizes
                plan.seeds = tuple(seed + self.shift for seed in seeds)
            path = config_dir / source.name
            path.write_text(json.dumps(spec.to_dict(), indent=1))
            self.configs.append(path)
        self.names = [
            json.loads(path.read_text())["name"] for path in self.configs
        ]
        (config_dir / "run_all.json").write_text(json.dumps({
            "name": self.name, "configs": [p.name for p in self.configs],
        }))

    def _cli(self, rss_file: Path, trace_dir: Optional[Path] = None):
        return [sys.executable, str(CHILD), "cli", str(rss_file),
                str(trace_dir or "-")]

    def _run_all_argv(self, out: Path, rss_file: Path, trace_dir=None):
        return self._cli(rss_file, trace_dir) + [
            "campaign", "run-all", str(WORK / "configs"),
            "--workers", str(self.workers), "--out-root", str(out),
        ]

    def run(self, trace_dir: Optional[Path] = None) -> Rep:
        out = WORK / "out"
        shutil.rmtree(out, ignore_errors=True)
        log = WORK / "cli.log"
        rss_file = WORK / "rss.txt"
        rss_file.unlink(missing_ok=True)
        start = time.perf_counter()
        procs = [run_process(self._run_all_argv(out, rss_file, trace_dir), log)]
        report_start = time.perf_counter()
        for config, name in zip(self.configs, self.names):
            procs.append(run_process(
                self._cli(rss_file) + [
                    "campaign", "report", str(config), "--out", str(out / name),
                ],
                log,
            ))
        end = time.perf_counter()
        ledgers = [read_ledger(out / name / "events.jsonl") for name in self.names]
        started = [e["ts"] for events in ledgers for e in events
                   if e["ev"] == "run_started"]
        rep = Rep(
            wall_s=end - start,
            cpu_s=sum(p.cpu_s for p in procs),
            peak_rss_mb=max(map(float, rss_file.read_text().split())),
            setup_s=min(started) - procs[0].start_ts,
            attempted=0, failed=0, digests={},
            tree_rss_mb=max(p.peak_rss_mb for p in procs),
            report_s=end - report_start,
            ledgers=ledgers,
        )
        self.check(rep, out)
        return rep

    def check(self, rep: Rep, out: Path) -> None:
        from repro.campaign import (
            CampaignSpec, CampaignStore, aggregate_campaign, campaign_status,
        )

        flags_seen = set()
        for config, name in zip(self.configs, self.names):
            spec = CampaignSpec.from_json_file(str(config))
            store = CampaignStore(str(out / name / "results.jsonl"))
            for row in campaign_status(spec, store).values():
                rep.attempted += row["total"]
                rep.failed += row["total"] - row["ok"]
            points = aggregate_campaign(spec, store, extended=True)
            rep.digests[name] = _digest({
                label: [[getattr(p, f) for f in POINT_FIELDS] for p in row_points]
                for label, row_points in points.items()
            })
            for row_points in points.values():
                for point in row_points:
                    flags = [k for k in PROPERTY_FLAGS if k in point.extras]
                    flags_seen.update(flags)
                    rep.failed += any(point.extras[k] != 1.0 for k in flags)
        rep.failed += len(set(self.expected_flags) - flags_seen)
        rep.failed += self.digest_mismatches(rep.digests)

    def setup_samples(self) -> List[float]:
        """Start ``run-all`` again and stop it at its first ``run_started``
        event: process start to the first cell dispatch, once more."""
        samples = []
        for _ in range(SETUP_PROBES):
            out = WORK / "probe"
            shutil.rmtree(out, ignore_errors=True)
            ledger = out / self.names[0] / "events.jsonl"
            with open(WORK / "probe.log", "ab") as log:
                start_ts = time.time()
                proc = subprocess.Popen(
                    self._run_all_argv(out, WORK / "probe-rss.txt"), stdout=log,
                    stderr=subprocess.STDOUT, env=child_env(), cwd=str(ROOT),
                    start_new_session=True,
                )
                try:
                    started = None
                    deadline = time.perf_counter() + PROCESS_TIMEOUT
                    while started is None:
                        if proc.poll() is not None or time.perf_counter() > deadline:
                            raise BenchError("setup probe ended before run_started")
                        time.sleep(0.002)
                        started = first_run_started(ledger)
                finally:
                    _stop_group(proc)
            samples.append(started - start_ts)
        return samples

    def replay(self):
        from repro.campaign import GRAPH_FAMILIES, execute_cell_block, get_row
        from repro.sim import MODELS

        row = get_row(self.replay_row)
        graph = GRAPH_FAMILIES[row.graph_family](self.replay_size)

        def run():
            execute_cell_block(
                self.replay_row, self.replay_size, (self.shift,), {}
            )

        return graph, MODELS[row.model], run


class PaperCold(CampaignWorkload):
    name = "paper_cold"
    replay_size = 64
    expected_flags = PROPERTY_FLAGS

    def source_configs(self) -> List[Path]:
        manifest = ROOT / "configs" / "run_all.json"
        return [ROOT / "configs" / entry
                for entry in json.loads(manifest.read_text())["configs"]]


class Table1X4(CampaignWorkload):
    name = "table1_x4"
    replay_size = 256
    expected_flags = ("lb_ok", "bound_holds")

    def source_configs(self) -> List[Path]:
        return [BENCH / "configs" / "table1_x4.json"]


class ManySeedBatch(Workload):
    name = "many_seed_batch"

    def run(self, trace_dir: Optional[Path] = None) -> Rep:
        out = WORK / "batch.json"
        argv = [sys.executable, str(CHILD), "batch", str(out), str(self.shift)]
        if trace_dir is not None:
            argv.append(str(trace_dir))
        proc = run_process(argv, WORK / "batch.log")
        report = json.loads(out.read_text())
        batches = report["batches"]
        rep = Rep(
            # The traced run's serial-engine agreement check is not
            # part of the workload.
            wall_s=proc.wall_s - report.get("check_s", 0.0),
            cpu_s=proc.cpu_s,
            peak_rss_mb=proc.peak_rss_mb,
            setup_s=report["first_batch_ts"] - proc.start_ts,
            attempted=sum(b["trials"] for b in batches.values()),
            failed=sum(
                b["violations"] + b.get("serial_mismatches", 0)
                for b in batches.values()
            ),
            digests={name: b["digest"] for name, b in batches.items()},
            tree_rss_mb=proc.peak_rss_mb,
        )
        rep.failed += self.digest_mismatches(rep.digests)
        return rep

    def replay(self):
        import frames
        from repro.sim import ExecutionConfig

        spec = frames.BATCHES[0].build(self.shift)
        spec.update(seeds=spec["seeds"][:1], exec_config=ExecutionConfig())
        graph, model = spec["graph"], spec["model"]
        return graph, model, lambda: frames.run_batch(spec)


WORKLOADS = {cls.name: cls for cls in (PaperCold, Table1X4, ManySeedBatch)}


def resolution_replay(workload: Workload) -> Dict[str, float]:
    """Record the (transmitters, receivers) of one serial bitmask batch,
    then replay them through the bitmask and numpy slot resolvers."""
    from repro.sim import create_backend

    graph, model, run = workload.replay()
    backend_cls = type(create_backend("bitmask", graph))
    original = backend_cls.slot_resolver
    slots = []

    def recording(self, bound_model):
        resolve = original(self, bound_model)

        def resolve_slot(transmitting, receivers, feedbacks):
            slots.append((dict(transmitting), list(receivers)))
            resolve(transmitting, receivers, feedbacks)

        return resolve_slot

    backend_cls.slot_resolver = recording
    try:
        run()
    finally:
        backend_cls.slot_resolver = original
    metrics: Dict[str, float] = {"resolution.slots_replayed": len(slots)}
    heard = {}
    for name in ("bitmask", "numpy"):
        resolver = create_backend(name, graph).slot_resolver(model)
        feedbacks = [{} for _ in slots]
        start = time.perf_counter()
        for (transmitting, receivers), out in zip(slots, feedbacks):
            resolver(transmitting, receivers, out)
        metrics[f"resolution.{name}_replay_s"] = time.perf_counter() - start
        heard[name] = feedbacks
    metrics["mismatches"] = sum(
        a != b for a, b in zip(heard["bitmask"], heard["numpy"])
    )
    return metrics


def layer_metrics(trace: Dict[str, Dict]) -> Dict[str, float]:
    self_s, total_s = trace["self_s"], trace["total_s"]
    calls, counts = trace["calls"], trace["counts"]
    slots = counts.get("sim.slots", 0)
    lockstep_trials = counts.get("lockstep.trials", 0)
    probe = self_s.get("sim.setup_probe", 0.0)
    return {
        "graphs.build_s": self_s.get("graphs.build", 0.0),
        "graphs.build_calls": calls.get("graphs.build", 0),
        "graphs.facts_s": self_s.get("graphs.facts", 0.0),
        "graphs.facts_calls": calls.get("graphs.facts", 0),
        "sim.run_s": total_s.get("sim.run", 0.0),
        "sim.batches": counts.get("sim.batches", 0),
        "sim.trials": counts.get("sim.trials", 0),
        "sim.slots": slots,
        "sim.gen_entries": counts.get("sim.gen_entries", 0),
        "sim.entries_per_slot": (
            counts.get("sim.gen_entries", 0) / slots if slots else 0.0
        ),
        "sim.setup_probe_s": probe,
        # The probe's trial setup includes the fault plans, which the
        # run's self time excludes: add them back before subtracting.
        "sim.residual_s": (
            self_s.get("sim.run", 0.0) + self_s.get("faults.plan", 0.0) - probe
        ),
        "models.classify_calls": calls.get("models.classify", 0),
        "models.classify_s": self_s.get("models.classify", 0.0),
        "observers.energy_calls": calls.get("observers.energy", 0),
        "observers.energy_s": self_s.get("observers.energy", 0.0),
        "trace.records": calls.get("trace.record", 0),
        "trace.record_s": self_s.get("trace.record", 0.0),
        "lowerbounds.analysis_s": self_s.get("lowerbounds.analysis", 0.0),
        "faults.plans": calls.get("faults.plan", 0),
        "faults.plan_s": self_s.get("faults.plan", 0.0),
        "lockstep.soa_ok_frac": (
            counts.get("lockstep.soa_ok_trials", 0) / lockstep_trials
            if lockstep_trials else 0.0
        ),
        "lockstep.fallback_batches": counts.get("lockstep.fallback_batches", 0),
        "lockstep.fallback_s": counts.get("lockstep.fallback_s", 0.0),
    }


def measure_end_to_end(workload: Workload, seconds: float):
    reps: List[Rep] = []
    start = time.perf_counter()
    while True:
        reps.append(workload.run())
        elapsed = time.perf_counter() - start
        if elapsed + reps[-1].wall_s > seconds:
            break
    setups = [rep.setup_s for rep in reps] + workload.setup_samples()
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(rep.wall_s for rep in reps),
        "cpu_s": statistics.median(rep.cpu_s for rep in reps),
        "peak_rss_mb": statistics.median(rep.peak_rss_mb for rep in reps),
    }
    return reps, metrics, f"{len(reps)} repetition(s), {len(setups)} setup sample(s)"


def measure_layers(workload: Workload):
    from tracer import merge

    plain = workload.run()
    trace_dir = WORK / "trace"
    traced = workload.run(trace_dir)
    metrics = layer_metrics(merge(str(trace_dir)))
    replay = resolution_replay(workload)
    traced.failed += replay.pop("mismatches")
    metrics.update(replay)
    metrics.update(fabric_metrics(plain.ledgers or []))
    campaign = plain.ledgers is not None
    metrics["campaign.plan_s"] = traced.setup_s if campaign else 0.0
    metrics["campaign.report_s"] = traced.report_s
    metrics["mem.tree_peak_rss_mb"] = plain.tree_rss_mb
    metrics["bench.trace_overhead_frac"] = traced.wall_s / plain.wall_s - 1.0
    return [plain, traced], metrics, "1 untraced + 1 traced repetition"


def environment(workers: int) -> Dict[str, str]:
    import numpy

    return {
        "nproc": str(len(os.sched_getaffinity(0))),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workers": str(workers),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"no repro sources under {SRC}: run from a checkout",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        metric["name"]: metric["unit"]
        for metric in declared["per_layer" if args.trace else "end_to_end"]
    }
    sys.path[:0] = [str(SRC), str(BENCH)]
    try:
        import numpy  # noqa: F401
    except ImportError:
        print("numpy is required by the benchmark", file=sys.stderr)
        return 2
    _become_subreaper()
    workers = min(2, len(os.sched_getaffinity(0)))
    env = environment(workers)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        # Byte-compile once so no repetition pays for it.
        run_process(
            [sys.executable, "-m", "compileall", "-q", str(SRC), str(BENCH)],
            WORK / "compile.log",
        )
        workload = WORKLOADS[args.workload](args.seed, workers)
        workload.prepare()
        if args.trace:
            reps, metrics, how = measure_layers(workload)
        else:
            reps, metrics, how = measure_end_to_end(workload, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if set(metrics) != set(units):
        print(f"metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    print(" ".join(f"{key}={value}" for key, value in env.items()))
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {how}")
    print("digests: " + json.dumps(reps[0].digests, sort_keys=True))
    print("wall_s per repetition: "
          + ", ".join(f"{rep.wall_s:.3f}" for rep in reps))
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {units[name]}")
    print(f"  {'failed_frac':<28} {failed / attempted:>14.6g} ratio"
          f"  ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
