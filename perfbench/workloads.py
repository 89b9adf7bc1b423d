"""The four benchmark workloads.

Each workload builds its inputs from the seed with the program's own
generators (set-up), replays them closed-loop in rounds (the next
epoch, day or trace is handed over as soon as the previous call
returns), checks the outputs against references computed apart from
the program, and can run one round with spans around each layer's
public functions (the traced run).

Inputs are a scaled week: the statistical ``week`` preset (168 hourly
epochs, the same world of ASNs, CDNs and sites, the same event
catalogue) at one eighth of its session volume, so that one run of
every workload, set-up and checks included, stays within about half a
minute on two CPUs.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import repro.core.online as online_module
import repro.core.pipeline as pipeline_module
import repro.core.shards as shards_module
import repro.trace.generator as generator_module
from repro.core.critical import CriticalClusters
from repro.core.epoching import EpochGrid, split_into_epochs
from repro.core.index import EpochClusterView, TraceClusterIndex
from repro.core.metrics import BUFFERING_RATIO
from repro.core.online import OnlineDetector
from repro.core.pipeline import AnalysisConfig, analyze_trace
from repro.core.resultcache import ResultCache
from repro.core.sessions import SessionTable
from repro.core.shards import build_shard_store, analyze_shards
from repro.core.substrate import AnalysisSubstrate, StreamingSubstrate
from repro.io.binary import read_sessions_npz, write_sessions_npz
from repro.io.snapshot import load_substrate
from repro.io.traceio import read_sessions_jsonl, write_sessions_jsonl
from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer
from repro.sim.engine import MechanisticQoEEngine
from repro.trace.generator import generate_trace
from repro.trace.workloads import StandardWorkloads

import reference
from spans import SpanRecorder, patched

MIB = float(1 << 20)
EPOCHS_PER_DAY = 24

#: Share of the generator's detectable planted events that the batch
#: analysis must find as exact critical clusters (see README.md).
RECALL_FLOOR = 0.5


@dataclass(frozen=True)
class Size:
    """Input make-up of one run."""

    #: Week trace volume (the ``week`` preset has 2500).
    week_sessions_per_epoch: int
    days: int
    #: Chunk-level traces: epochs, volume, traces per round.
    mech_epochs: int
    mech_sessions_per_epoch: int
    mech_traces: int
    #: The scalar-loop reference sample for the bit-identity check.
    ref_epochs: int
    ref_sessions_per_epoch: int
    #: Set-ups per run; ``setup_s`` is their median.
    setups: int


SIZES = {
    "full": Size(312, 7, 24, 1200, 2, 2, 150, 5),
    # Seconds-fast inputs for the output self-test.
    "quick": Size(60, 2, 2, 100, 1, 1, 40, 1),
}


def week_spec(seed: int, size: Size):
    spec = StandardWorkloads.week(seed)
    return replace(
        spec,
        name="week_eighth",
        n_epochs=EPOCHS_PER_DAY * size.days,
        arrivals=replace(
            spec.arrivals, base_sessions_per_epoch=size.week_sessions_per_epoch
        ),
    )


def mech_spec(seed: int, size: Size, reference_sample: bool = False):
    spec = StandardWorkloads.mechanistic_day(seed)
    epochs, volume, sim = size.mech_epochs, size.mech_sessions_per_epoch, "batch"
    if reference_sample:
        epochs, volume, sim = size.ref_epochs, size.ref_sessions_per_epoch, "scalar"
    return replace(
        spec,
        n_epochs=epochs,
        arrivals=replace(spec.arrivals, base_sessions_per_epoch=volume),
        sim=sim,
    )


@dataclass
class Round:
    """One closed-loop pass over a workload's inputs."""

    latencies: list[float] = field(default_factory=list)
    sessions: int = 0
    outputs: object = None

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def analysis_digest(analysis) -> str:
    """Order-independent digest of every per-epoch result."""
    h = hashlib.sha256()
    for name in sorted(analysis.metrics):
        for e in analysis.metrics[name].epochs:
            h.update(repr((
                name, e.epoch, e.total_sessions, e.total_problems,
                sorted(k.pairs for k in e.problem_clusters),
                sorted(
                    (k.pairs, a.attributed_problems, a.attributed_sessions)
                    for k, a in e.critical_clusters.items()
                ),
            )).encode())
    return h.hexdigest()


def critical_sets(metric_analysis) -> list[set]:
    return [{k.pairs for k in e.critical_clusters} for e in metric_analysis.epochs]


def median_ms(values: list[float]) -> float:
    if not values:
        raise ValueError("no samples recorded")
    return statistics.median(values) * 1e3


class Workload:
    name = ""
    ops_per_round = 1

    def __init__(self, seed: int, size: Size, work: Path) -> None:
        self.seed = seed
        self.size = size
        self.work = work
        work.mkdir(parents=True, exist_ok=True)

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self) -> Round:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One untimed pass, so that first-call costs (lazy imports,
        allocator growth, page cache) stay out of the timed rounds."""
        self.run_round()

    def traced_round(self, rec: SpanRecorder) -> tuple[Round, dict]:
        raise NotImplementedError

    def digest(self, outputs) -> str:
        raise NotImplementedError

    def check(self, outputs) -> list[str]:
        raise NotImplementedError

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


class WeekBatch(Workload):
    """Read the week from uncompressed npz and analyse all four metrics
    with two workers (process fan-out, shared-memory transport)."""

    name = "week_batch"
    config = AnalysisConfig(workers=2)

    def setup(self) -> None:
        self.gen = generate_trace(week_spec(self.seed, self.size))
        self.path = self.work / "week.npz"
        write_sessions_npz(self.gen.table, self.path, compress=False)

    def run_round(self) -> Round:
        before = shm_segments()
        t0 = time.perf_counter()
        table = read_sessions_npz(self.path)
        analysis = analyze_trace(table, self.config)
        dt = time.perf_counter() - t0
        return Round([dt], len(table), (analysis, shm_segments() - before))

    def digest(self, outputs) -> str:
        return analysis_digest(outputs[0])

    def check(self, outputs) -> list[str]:
        analysis, leaked = outputs
        errors = []
        if leaked:
            errors.append(f"week_batch: shared-memory segments left behind: {sorted(leaked)}")
        n_epochs = self.gen.spec.n_epochs
        if analysis.grid.origin != 0.0 or analysis.grid.n_epochs != n_epochs:
            errors.append(f"week_batch: unexpected grid {analysis.grid}")
            return errors
        table = self.gen.table
        counts = reference.direct_counts(table, n_epochs)
        for name, ma in analysis.metrics.items():
            if ([e.total_sessions for e in ma.epochs] != counts[name][0].tolist()
                    or [e.total_problems for e in ma.epochs] != counts[name][1].tolist()):
                errors.append(f"week_batch: {name} per-epoch totals differ from the direct count")
        # Brute-force enumeration on sampled epochs: per metric, the
        # epoch with the most problem clusters and one drawn from the seed.
        _, rows = split_into_epochs(table, analysis.grid)
        rng = np.random.default_rng(self.seed)
        for name, ma in analysis.metrics.items():
            busiest = max(range(n_epochs), key=lambda e: len(ma.epochs[e].problem_clusters))
            for e in sorted({busiest, int(rng.integers(n_epochs))}):
                ref = reference.enumerate_epoch(
                    table.schema.names, reference.epoch_rows(table, name, rows[e])
                )
                got = ma.epochs[e]
                if {k.pairs for k in got.problem_clusters} != ref.problem_keys:
                    errors.append(f"week_batch: {name} epoch {e}: problem clusters differ from enumeration")
                if {k.pairs for k in got.critical_clusters} != ref.critical_keys:
                    errors.append(f"week_batch: {name} epoch {e}: critical clusters differ from enumeration")
        detected, detectable = reference.detectable_recall(
            table, self.gen.catalog,
            {name: critical_sets(ma) for name, ma in analysis.metrics.items()},
            n_epochs,
        )
        if detectable and detected < RECALL_FLOOR * detectable:
            errors.append(
                f"week_batch: recall {detected}/{detectable} of detectable events "
                f"is below the floor {RECALL_FLOOR}"
            )
        return errors

    def traced_round(self, rec: SpanRecorder) -> tuple[Round, dict]:
        layers = [
            (TraceClusterIndex, "build", "core.index", "TraceClusterIndex.build"),
            (TraceClusterIndex, "epoch_view", "core.index", "TraceClusterIndex.epoch_view"),
            (EpochClusterView, "aggregate", "core.aggregation", "EpochClusterView.aggregate"),
            (pipeline_module, "find_problem_clusters", "core.problems", "find_problem_clusters"),
            (pipeline_module, "find_critical_clusters", "core.critical", "find_critical_clusters"),
            (pipeline_module, "make_worker_payload", "core.shm", "make_worker_payload",
             lambda _record, payload: segment_bytes.append(payload.manifest.nbytes)),
        ]
        segment_bytes: list[int] = []
        before = shm_segments()
        with patched(rec, layers):
            mark = len(rec.spans)
            with rec.span("bench", "week_batch.op"):
                t0 = time.perf_counter()
                with rec.span("io.binary", "read_sessions_npz"):
                    table = read_sessions_npz(self.path)
                with rec.span("core.pipeline", "analyze_trace", workers=2) as par:
                    analysis = analyze_trace(table, self.config)
                dt = time.perf_counter() - t0
            round_ = Round([dt], len(table), (analysis, shm_segments() - before))
            npz_s = rec.durations("io.binary", "read_sessions_npz", mark)[0]
            pack_ms = median_ms(rec.durations("core.shm", "make_worker_payload", mark))
            # Per-epoch layers run in the workers above, out of reach of
            # the parent's spans: replay the serial path for them.
            mark = len(rec.spans)
            with rec.span("core.pipeline", "analyze_trace", workers=0) as ser:
                serial = analyze_trace(table, self.config, workers=0)
        if analysis_digest(serial) != analysis_digest(analysis):
            raise AssertionError("week_batch: serial and parallel analyses differ")
        serial_s = ser["end_s"] - ser["start_s"]
        parallel_s = par["end_s"] - par["start_s"]

        # The program's live tracer against its default no-op tracer,
        # in two pairs run in opposite orders.
        plain = live = 0.0
        for live_first in (False, True):
            for with_tracer in (live_first, not live_first):
                t0 = time.perf_counter()
                with use_tracer(Tracer()) if with_tracer else nullcontext():
                    analyze_trace(table, self.config)
                if with_tracer:
                    live += time.perf_counter() - t0
                else:
                    plain += time.perf_counter() - t0

        gen_layers = [
            (generator_module, "build_world", "trace", "build_world"),
            (generator_module, "generate_catalog", "trace", "generate_catalog"),
        ]
        gen_mark = len(rec.spans)
        with patched(rec, gen_layers):
            with rec.span("trace", "generate_trace") as gen:
                generate_trace(week_spec(self.seed, self.size))

        metrics = {
            "io.npz_read_mb_per_s": self.path.stat().st_size / MIB / npz_s,
            "index.build_s": statistics.median(rec.durations("core.index", "TraceClusterIndex.build", mark)),
            "index.epoch_view_ms": median_ms(rec.durations("core.index", "TraceClusterIndex.epoch_view", mark)),
            "aggregation.aggregate_ms": median_ms(rec.durations("core.aggregation", "EpochClusterView.aggregate", mark)),
            "problems.find_ms": median_ms(rec.durations("core.problems", "find_problem_clusters", mark)),
            "critical.find_ms": median_ms(rec.durations("core.critical", "find_critical_clusters", mark)),
            "pipeline.serial_s": serial_s,
            "pipeline.parallel_speedup": serial_s / parallel_s,
            "shm.pack_ms": pack_ms,
            "shm.segment_mb": segment_bytes[0] / MIB,
            "obs.tracer_time_ratio": live / plain,
            "trace.generate_s": gen["end_s"] - gen["start_s"],
            "trace.world_ms": median_ms(rec.durations("trace", "build_world", gen_mark)),
            "trace.events_ms": median_ms(rec.durations("trace", "generate_catalog", gen_mark)),
        }
        return round_, metrics


class OnlineWeek(Workload):
    """Feed the week one epoch at a time, each as a fresh table, into
    one online detector on buffering ratio."""

    name = "online_week"

    def setup(self) -> None:
        self.gen = generate_trace(week_spec(self.seed, self.size))
        table = self.gen.table
        _, rows = split_into_epochs(table, EpochGrid.covering(table))
        self.chunks = [table.select(r) for r in rows]
        self.ops_per_round = len(self.chunks)

    def _replay(self, observe, chunks=None) -> Round:
        chunks = self.chunks if chunks is None else chunks
        detector = OnlineDetector(BUFFERING_RATIO)
        round_ = Round()
        for chunk in chunks:
            t0 = time.perf_counter()
            observe(detector, chunk)
            round_.latencies.append(time.perf_counter() - t0)
            round_.sessions += len(chunk)
        n = len(chunks)
        round_.outputs = {
            "critical": [{k.pairs for k in detector.critical_keys_at(e)} for e in range(n)],
            "totals": [(o.total_sessions, o.total_problems) for o in detector.history],
            "confirmed": sorted(
                (a.confirmed_epoch, a.key.pairs) for a in detector.confirmed_alerts
            ),
            "confirm_after": detector.confirm_after,
            "memory_bytes": detector.substrate.memory_bytes(),
        }
        return round_

    def run_round(self, chunks=None) -> Round:
        return self._replay(lambda detector, chunk: detector.observe_epoch(chunk), chunks)

    def warm_up(self) -> None:
        self.run_round(self.chunks[:EPOCHS_PER_DAY])

    def digest(self, outputs) -> str:
        return hashlib.sha256(repr((
            [sorted(s) for s in outputs["critical"]], outputs["totals"],
            outputs["confirmed"],
        )).encode()).hexdigest()

    def check(self, outputs) -> list[str]:
        errors = []
        table = self.gen.table
        n = len(self.chunks)
        sessions, problems = reference.direct_counts(table, n)["buffering_ratio"]
        if outputs["totals"] != list(zip(sessions.tolist(), problems.tolist())):
            errors.append("online_week: per-epoch totals differ from the direct count")
        batch = analyze_trace(
            table, AnalysisConfig(metrics=(BUFFERING_RATIO,)), workers=0
        )
        expected = critical_sets(batch[BUFFERING_RATIO.name])
        for e, (got, want) in enumerate(zip(outputs["critical"], expected)):
            if got != want:
                errors.append(f"online_week: epoch {e} critical keys differ from batch analysis")
                break
        k = outputs["confirm_after"]
        for confirmed, key in outputs["confirmed"]:
            window = range(confirmed - k + 1, confirmed + 1)
            if confirmed < k - 1 or not all(key in expected[e] for e in window):
                errors.append(
                    f"online_week: alert {key} confirmed at epoch {confirmed} "
                    f"without {k} consecutive critical epochs"
                )
        return errors

    def traced_round(self, rec: SpanRecorder) -> tuple[Round, dict]:
        layers = [
            (SessionTable, "select", "core.sessions", "SessionTable.select"),
            (StreamingSubstrate, "append", "core.substrate", "StreamingSubstrate.append"),
            (TraceClusterIndex, "epoch_view", "core.index", "TraceClusterIndex.epoch_view"),
            (EpochClusterView, "aggregate", "core.aggregation", "EpochClusterView.aggregate"),
            (online_module, "find_problem_clusters", "core.problems", "find_problem_clusters"),
            (online_module, "find_critical_clusters", "core.critical", "find_critical_clusters"),
            (CriticalClusters, "decoded", "core.critical", "CriticalClusters.decoded"),
        ]
        observes: list[dict] = []

        def observe(detector, chunk):
            with rec.span("core.online", "OnlineDetector.observe_epoch") as s:
                detector.observe_epoch(chunk)
            observes.append(s)

        mark = len(rec.spans)
        with patched(rec, layers):
            round_ = self._replay(observe)
        # observe_epoch's own time: its span minus the layer calls inside.
        own = rec.own_times()
        alert_update = [own[s["id"]] for s in observes]
        appends = rec.durations("core.substrate", "StreamingSubstrate.append", mark)
        observe_s = [s["end_s"] - s["start_s"] for s in observes]
        day = EPOCHS_PER_DAY
        metrics = {
            "substrate.append_first_day_ms": median_ms(appends[:day]),
            "substrate.append_last_day_ms": median_ms(appends[-day:]),
            "substrate.memory_mb": round_.outputs["memory_bytes"] / MIB,
            "online.alert_update_ms": median_ms(alert_update),
            "online.observe_p90_ms": float(np.quantile(observe_s, 0.9)) * 1e3,
            "online.observe_last_day_p50_ms": median_ms(observe_s[-day:]),
        }
        return round_, metrics


class CountingCache(ResultCache):
    """The program's result cache, with hits and misses counted."""

    def __init__(self, path) -> None:
        super().__init__(path)
        self.hits = 0
        self.misses = 0

    def get(self, key: str):
        value = super().get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class DailyShards(Workload):
    """The daily workflow, seven times: read the day's JSONL, rebuild
    the day-per-shard store from all days so far, and analyse it
    serially under one result cache."""

    name = "daily_shards"

    def setup(self) -> None:
        self.gen = generate_trace(week_spec(self.seed, self.size))
        table = self.gen.table
        _, rows = split_into_epochs(table, EpochGrid.covering(table))
        self.day_paths = []
        for d in range(self.size.days):
            day_rows = np.concatenate(rows[d * EPOCHS_PER_DAY:(d + 1) * EPOCHS_PER_DAY])
            path = self.work / f"day{d}.jsonl"
            write_sessions_jsonl(table.select(day_rows), path)
            self.day_paths.append(path)
        self.ops_per_round = len(self.day_paths)

    def _replay(self, rec: SpanRecorder | None = None, day_paths=None) -> Round:
        def span(layer, name):
            return rec.span(layer, name) if rec is not None else nullcontext()

        root = self.work / "round"
        shutil.rmtree(root, ignore_errors=True)
        cache = CountingCache(root / "cache")
        store_dir = root / "store"
        tables: list[SessionTable] = []
        days = []
        round_ = Round()
        analysis = None
        for path in self.day_paths if day_paths is None else day_paths:
            misses = cache.misses
            t0 = time.perf_counter()
            with span("bench", "daily_shards.day"):
                with span("io.traceio", "read_sessions_jsonl"):
                    tables.append(read_sessions_jsonl(path, chunked=True))
                with span("core.sessions", "SessionTable.concat"):
                    table = SessionTable.concat(tables)
                with span("core.shards", "build_shard_store"):
                    store = build_shard_store(table, store_dir, epochs_per_shard=EPOCHS_PER_DAY)
                with span("core.shards", "analyze_shards"):
                    analysis = analyze_shards(store, AnalysisConfig(), workers=0, result_cache=cache)
            round_.latencies.append(time.perf_counter() - t0)
            round_.sessions += len(tables[-1])
            days.append({
                "shards": len(store.shards),
                "misses": cache.misses - misses,
                "totals": {
                    name: ([e.total_sessions for e in ma.epochs],
                           [e.total_problems for e in ma.epochs])
                    for name, ma in analysis.metrics.items()
                },
            })
        store_paths = [store.shard_path(i) for i in range(len(store.shards))]
        unverified = []
        if rec is not None:
            for p in store_paths:
                with span("io.snapshot", "load_substrate.unverified") as s:
                    load_substrate(p, verify=False)
                unverified.append(s)
        round_.outputs = {
            "analysis": analysis,
            "days": days,
            "hits": cache.hits,
            "misses": cache.misses,
            "store_bytes": tree_bytes(root),
        }
        shutil.rmtree(root)
        if root.exists():
            raise RuntimeError(f"daily_shards: {root} not removed")
        return round_

    def run_round(self) -> Round:
        return self._replay()

    def warm_up(self) -> None:
        self._replay(day_paths=self.day_paths[:1])

    def digest(self, outputs) -> str:
        return hashlib.sha256(repr((
            analysis_digest(outputs["analysis"]),
            [d["misses"] for d in outputs["days"]],
        )).encode()).hexdigest()

    def check(self, outputs) -> list[str]:
        errors = []
        table = self.gen.table
        n_epochs = self.gen.spec.n_epochs
        counts = reference.direct_counts(table, n_epochs)
        for d, day in enumerate(outputs["days"]):
            upto = (d + 1) * EPOCHS_PER_DAY
            if day["misses"] != 1 or day["shards"] != d + 1:
                errors.append(
                    f"daily_shards: day {d + 1}: {day['misses']} cache misses over "
                    f"{day['shards']} shards, want exactly the one new shard"
                )
            for name, (sessions, problems) in day["totals"].items():
                want_s, want_p = counts[name]
                if sessions != want_s[:upto].tolist() or problems != want_p[:upto].tolist():
                    errors.append(f"daily_shards: day {d + 1}: {name} totals differ from the direct count")
        mono = analyze_trace(table, AnalysisConfig(), workers=0)
        merged = outputs["analysis"]
        for name, ma in mono.metrics.items():
            if critical_sets(ma) != critical_sets(merged[name]):
                errors.append(f"daily_shards: {name} critical clusters differ from monolithic analysis")
        if outputs["store_bytes"] <= 0:
            errors.append("daily_shards: empty store")
        return errors

    def traced_round(self, rec: SpanRecorder) -> tuple[Round, dict]:
        saved: list[int] = []

        def note_save(_record, path):
            saved.append(Path(path).stat().st_size)

        layers = [
            (AnalysisSubstrate, "build", "core.substrate", "AnalysisSubstrate.build"),
            (shards_module, "save_substrate", "io.snapshot", "save_substrate", note_save),
            (shards_module, "load_substrate", "io.snapshot", "load_substrate"),
            (ResultCache, "get", "core.resultcache", "ResultCache.get"),
            (ResultCache, "put", "core.resultcache", "ResultCache.put"),
            (shards_module, "analyze_sweep", "core.substrate", "analyze_sweep"),
            (shards_module, "merge_shard_analyses", "core.shards", "merge_shard_analyses"),
        ]
        mark = len(rec.spans)
        with patched(rec, layers):
            round_ = self._replay(rec)
        jsonl_bytes = sum(p.stat().st_size for p in self.day_paths)
        builds = rec.durations("core.shards", "build_shard_store", mark)
        out = round_.outputs
        metrics = {
            "io.jsonl_read_mb_per_s": jsonl_bytes / MIB / sum(
                rec.durations("io.traceio", "read_sessions_jsonl", mark)),
            "sessions.concat_ms": median_ms(rec.durations("core.sessions", "SessionTable.concat", mark)),
            "shards.store_build_s": statistics.median(builds),
            "shards.store_build_last_day_s": builds[-1],
            "shards.analyze_s": statistics.median(rec.durations("core.shards", "analyze_shards", mark)),
            "shards.merge_ms": median_ms(rec.durations("core.shards", "merge_shard_analyses", mark)),
            "shards.store_mb": out["store_bytes"] / MIB,
            "snapshot.save_mb_per_s": sum(saved) / MIB / sum(
                rec.durations("io.snapshot", "save_substrate", mark)),
            "snapshot.load_verified_ms": median_ms(rec.durations("io.snapshot", "load_substrate", mark)),
            "snapshot.load_unverified_ms": median_ms(
                rec.durations("io.snapshot", "load_substrate.unverified", mark)),
            "resultcache.get_ms": median_ms(rec.durations("core.resultcache", "ResultCache.get", mark)),
            "resultcache.put_ms": median_ms(rec.durations("core.resultcache", "ResultCache.put", mark)),
            "resultcache.hits": out["hits"],
            "resultcache.misses": out["misses"],
        }
        return round_, metrics


class MechanisticGen(Workload):
    """Generate chunk-level day traces with the batch simulator for
    seeds derived from the workload seed."""

    name = "mechanistic_gen"

    def setup(self) -> None:
        seeds = np.random.SeedSequence(self.seed).generate_state(self.size.mech_traces)
        self.seeds = [int(s) for s in seeds]
        self.ops_per_round = len(self.seeds)
        # The scalar-loop reference sample the bit-identity check uses.
        self.scalar_ref = generate_trace(mech_spec(self.seed, self.size, reference_sample=True))

    def _replay(self, seeds=None) -> Round:
        round_ = Round(outputs=[])
        for s in self.seeds if seeds is None else seeds:
            t0 = time.perf_counter()
            gen = generate_trace(mech_spec(s, self.size))
            round_.latencies.append(time.perf_counter() - t0)
            round_.sessions += gen.n_sessions
            round_.outputs.append(gen)
        return round_

    def run_round(self) -> Round:
        return self._replay()

    def warm_up(self) -> None:
        self._replay(self.seeds[:1])

    def digest(self, outputs) -> str:
        h = hashlib.sha256()
        for gen in outputs:
            for col in table_columns(gen.table):
                h.update(np.ascontiguousarray(col).tobytes())
        return h.hexdigest()

    def check(self, outputs) -> list[str]:
        errors = []
        for gen in outputs:
            t = gen.table
            joined = ~t.join_failed
            tag = f"mechanistic_gen seed {gen.spec.seed}"
            if np.any(t.buffering_s < 0) or np.any(t.buffering_s > t.duration_s):
                errors.append(f"{tag}: buffering ratio outside [0, 1]")
            if np.any(~(t.join_time_s[joined] >= 0)):
                errors.append(f"{tag}: negative or missing join time")
            lo, hi = ladder_bounds(gen)
            rate = t.bitrate_kbps
            outside = joined & ~((rate >= lo * (1 - 1e-9)) & (rate <= hi * (1 + 1e-9)))
            if outside.any():
                errors.append(f"{tag}: {int(outside.sum())} bitrates outside the site's ladder")
        batch = generate_trace(replace(mech_spec(self.seed, self.size, True), sim="batch"))
        for want, got in zip(table_columns(self.scalar_ref.table), table_columns(batch.table)):
            if not np.array_equal(want, got, equal_nan=want.dtype.kind == "f"):
                errors.append("mechanistic_gen: batch output differs from the scalar reference")
                break
        return errors

    def traced_round(self, rec: SpanRecorder) -> tuple[Round, dict]:
        layers = [
            (generator_module, "build_world", "trace", "build_world"),
            (generator_module, "generate_catalog", "trace", "generate_catalog"),
            (MechanisticQoEEngine, "generate", "sim", "MechanisticQoEEngine.generate"),
        ]
        registry = MetricsRegistry()
        mark = len(rec.spans)
        with patched(rec, layers), use_metrics(registry):
            round_ = Round(outputs=[])
            for s in self.seeds:
                with rec.span("trace", "generate_trace"):
                    t0 = time.perf_counter()
                    gen = generate_trace(mech_spec(s, self.size))
                    round_.latencies.append(time.perf_counter() - t0)
                round_.sessions += gen.n_sessions
                round_.outputs.append(gen)
        qoe = rec.durations("sim", "MechanisticQoEEngine.generate", mark)
        with rec.span("sim", "scalar_reference") as scalar:
            ref = generate_trace(mech_spec(self.seed, self.size, reference_sample=True))
        metrics = {
            "sim.qoe_generate_ms": median_ms(qoe),
            "sim.segments_per_s": registry.get("generate.segments") / sum(qoe),
            "sim.scalar_sessions_per_s": ref.n_sessions / (scalar["end_s"] - scalar["start_s"]),
        }
        return round_, metrics


def ladder_bounds(gen) -> tuple[np.ndarray, np.ndarray]:
    """Lowest and highest rung each session may play.

    The site's ladder, cut at the lowest bitrate cap of the planted
    events active on the session; a cap below the whole ladder leaves
    one rung at the cap.
    """
    t = gen.table
    epoch = np.floor(t.start_time / gen.spec.epoch_seconds).astype(np.int64)
    cap = np.full(len(t), np.inf)
    for event in gen.catalog:
        limit = event.effects.bitrate_cap_kbps
        if limit == np.inf:
            continue
        rows = np.isin(epoch, [e for e in range(gen.spec.n_epochs) if event.is_active(e)])
        for attr, label in event.constraints:
            col = t.schema.names.index(attr)
            rows &= np.array([t.vocabs[col][c] == label for c in t.codes[:, col]])
        cap[rows] = np.minimum(cap[rows], limit)
    site_col = t.schema.names.index("site")
    ladders = {s.name: s.ladder for s in gen.world.sites}
    lo = np.empty(len(t))
    hi = np.empty(len(t))
    for i, (code, c) in enumerate(zip(t.codes[:, site_col], cap)):
        rungs = [r for r in ladders[t.vocabs[site_col][code]] if r <= c] or [c]
        lo[i], hi[i] = rungs[0], rungs[-1]
    return lo, hi


def table_columns(t) -> list[np.ndarray]:
    return [t.codes, t.start_time, t.duration_s, t.buffering_s, t.join_time_s,
            t.bitrate_kbps, t.join_failed]


WORKLOADS = {w.name: w for w in (WeekBatch, OnlineWeek, DailyShards, MechanisticGen)}
