"""Machinery shared by the workloads: spans, timing statistics, the run
context, the environment record and the data-directory helpers.

Spans are recorded only by the benchmark, around each call it makes into a
contextdb layer. A span is the tuple (id, parent, op, name, start, end) with
times from time.perf_counter(); `op` is the id of the unit op the call
belongs to, or None for set-up and restart calls. Spans stay in memory and
are written out once, when the run ends.

Every workload is one process with one client thread in a closed loop, so
no layer ever waits for another: time waited is zero by construction and
is not reported. A faster layer can save at most its self-time share of a
unit op (span_analysis reports those shares).
"""

from __future__ import annotations

import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

clock = time.perf_counter

# The program's own flush policy, which the benchmark leaves as it is.
FLUSH_POLICY = ("flush() after every log record; fsync only on close(); "
                "snapshots are written to a temp file and renamed")


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class NullTracer:
    """Tracing off: every span is the same do-nothing context manager."""

    op = None

    def span(self, name: str):
        return _NO_SPAN

    def stages(self, parent, durations_ms) -> None:
        pass


class _Span:
    __slots__ = ("tracer", "name", "id", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.id = tr._next_id
        tr._next_id += 1
        self.parent = tr._stack[-1] if tr._stack else None
        tr._stack.append(self.id)
        self.start = clock()
        return self

    def __exit__(self, *exc):
        end = clock()
        tr = self.tracer
        tr._stack.pop()
        tr.spans.append((self.id, self.parent, tr.op, self.name,
                         self.start, end))
        return False


class Tracer:
    """Tracing on: spans are appended to an in-memory list."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = None
        self._stack: list[int] = []
        self._next_id = 0

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def stages(self, parent: _Span, durations_ms) -> None:
        """Add child spans for stages timed inside the program (the
        pipeline's latency_breakdown). Only durations are known, so the
        stages are laid end to end from the parent's start; they ran one
        after another inside the parent, so they fit within it."""
        t = parent.start
        for name, ms in durations_ms:
            end = t + ms / 1000.0
            self.spans.append((self._next_id, parent.id, self.op, name, t,
                               end))
            self._next_id += 1
            t = end


def span_analysis(spans: list[tuple]) -> dict:
    """Self time per span name over the unit ops' span trees, and the share
    of the ops' traced wall time that their layer spans account for.

    Self time is a span's duration minus the time its children cover. The
    children of one span never overlap (the load is single-threaded), so
    the covered time is the sum of their durations. Summed over one op's
    tree, self times telescope to the root's duration; `max_residual_s`
    records how far from that identity any op came (floating point only).
    """
    children_time: dict[int, float] = defaultdict(float)
    for sid, parent, op, name, start, end in spans:
        if parent is not None:
            children_time[parent] += end - start
    self_by_name: dict[str, float] = defaultdict(float)
    tree_self: dict = defaultdict(float)
    root_time: dict = {}
    for sid, parent, op, name, start, end in spans:
        if op is None:
            continue
        own = (end - start) - children_time.get(sid, 0.0)
        self_by_name[name] += own
        tree_self[op] += own
        if parent is None:
            root_time[op] = root_time.get(op, 0.0) + (end - start)
    total = sum(root_time.values())
    roots_self = sum(self_by_name[n] for n in self_by_name
                     if n.startswith("op."))
    residual = max((abs(tree_self[op] - root_time[op]) for op in root_time),
                   default=0.0)
    return {
        "ops": len(root_time),
        "op_wall_s": total,
        "coverage": (total - roots_self) / total if total else 0.0,
        "max_residual_s": residual,
        "self_share": {n: s / total for n, s in sorted(self_by_name.items())}
        if total else {},
    }


def durations(spans: list[tuple], name: str, ops=None) -> list[float]:
    """Durations (s) of the spans called `name`, optionally only those of
    the unit ops in `ops`."""
    if ops is None:
        return [end - start for _, _, _, n, start, end in spans if n == name]
    return [end - start for _, _, op, n, start, end in spans
            if n == name and op in ops]


# Per-call timings: metric -> (span name, scale from seconds to its unit).
# Each becomes <metric>.p50 and <metric>.p99.
SPAN_TIMINGS = {
    "core.embed_us": ("core.embed", 1e6),
    "core.document_us": ("core.document", 1e6),
    "filters.parse_us": ("filters.parse", 1e6),
    "index.flat.insert_us": ("index.flat.insert", 1e6),
    "index.hnsw.insert_ms": ("index.hnsw.insert", 1e3),
    "index.hnsw.upsert_ms": ("index.hnsw.upsert", 1e3),
    "index.hnsw.search_ms": ("index.hnsw.search", 1e3),
    "index.ivf.insert_us": ("index.ivf.insert", 1e6),
    "index.ivf.remove_us": ("index.ivf.remove", 1e6),
    "index.ivf.search_ms": ("index.ivf.search", 1e3),
    "index.ivf.filtered_ms": ("index.ivf.search_filtered", 1e3),
    "index.snapshot.save_ms": ("index.snapshot.save", 1e3),
    "index.snapshot.load_ms": ("index.snapshot.load", 1e3),
    "conversation.append_us": ("conversation.append", 1e6),
    "conversation.history_us": ("conversation.history", 1e6),
    "conversation.reopen_ms": ("conversation.reopen", 1e3),
    "profiles.put_us": ("profiles.put", 1e6),
    "profiles.update_us": ("profiles.update", 1e6),
    "profiles.get_us": ("profiles.get", 1e6),
    "profiles.query_us": ("profiles.query", 1e6),
    "profiles.reopen_ms": ("profiles.reopen", 1e3),
}


def traced_metrics(spans: list[tuple], timed: "Timed") -> dict:
    """The per-layer metrics every workload derives the same way: per-call
    timings, span coverage and tracing overhead. A call the workload makes
    inside its timed loop is timed there; one it makes only during set-up
    or restarts is timed there. Metrics without spans are left out."""
    in_ops: dict = defaultdict(list)
    elsewhere: dict = defaultdict(list)
    for _, _, op, name, start, end in spans:
        (elsewhere if op is None else in_ops)[name].append(end - start)
    out = {}
    for metric, (name, scale) in SPAN_TIMINGS.items():
        seconds = in_ops.get(name) or elsewhere.get(name)
        if seconds:
            out.update(timing(metric, seconds, scale))
    analysis = span_analysis(spans)
    out["bench.span_coverage"] = analysis["coverage"]
    out["bench.trace_overhead"] = timed.trace_overhead()
    out["_spans"] = analysis
    return out


def quantile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def timing(name: str, seconds, scale: float) -> dict[str, float]:
    """`<name>.p50` and `<name>.p99` of a list of durations in seconds,
    scaled to the metric's unit (1e3 for ms, 1e6 for us)."""
    return {f"{name}.p50": quantile(seconds, 50) * scale,
            f"{name}.p99": quantile(seconds, 99) * scale}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Checks:
    """Output-check bookkeeping for one run. A failed unit op is one whose
    output check failed or that raised unexpectedly. Known defects are
    failed ops too, but are kept apart from unexpected ones so that the
    run stays usable while the defect stands."""

    failed_ops: int = 0
    known: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    unexpected: list[str] = field(default_factory=list)
    not_run: int = 0

    def fail(self, what: str) -> None:
        self.failed_ops += 1
        self.problem(what)

    def problem(self, what: str) -> None:
        """A mismatch outside any single unit op (e.g. after a restart)."""
        if len(self.unexpected) < 50:
            self.unexpected.append(what)
        else:
            self.unexpected[-1] = f"... and more; last: {what}"

    def known_defect(self, name: str) -> None:
        self.failed_ops += 1
        self.known[name] += 1

    def skipped(self, count: int) -> None:
        """Planned unit ops that never ran: the timed loop hit the deadline
        or stopped after a failure. They count as attempted and failed, so
        both sides of a comparison attempt the same ops and a cut run shows
        on the result line."""
        self.not_run += count
        self.failed_ops += count


@dataclass
class RunContext:
    """What a workload gets from run.py."""

    seed: int
    seconds: int
    workdir: Path
    trace: bool
    deadline: float  # perf_counter() value after which the timed loop stops
    tracer: object = None
    checks: Checks = field(default_factory=Checks)
    truncated: bool = False

    def __post_init__(self):
        if self.tracer is None:
            self.tracer = Tracer() if self.trace else NullTracer()


class Timed:
    """Unit-op latencies and the busy time of the timed phase.

    In a traced run, half the ops are traced, picked by a hash of the op
    id, so that both sides see the same stream and the same state and no
    periodic pattern in a workload (every fourth query filtered, a
    checkpoint every 50 ticks) falls on one side only. Only spans of traced
    ops feed the per-layer metrics. Each op carries a kind
    (say, "hit" or "filtered miss"); the tracing overhead compares the two
    sides kind by kind, weighted by the whole stream's mix, because a few
    slow kinds would otherwise swamp it with sampling noise.
    """

    def __init__(self, ctx: RunContext):
        gc.collect()  # the timed phase inherits no collection debt from set-up
        self.ctx = ctx
        self.real_tracer = ctx.tracer
        self.null = NullTracer()
        self.latency: list[float] = []
        self.busy = 0.0
        self.by_kind: dict = defaultdict(lambda: [[], []])
        self.traced_ops: set = set()

    def tracer_for(self, i: int):
        """The tracer to use for op i; also sets the op id on it."""
        if not self.ctx.trace or not (i * 2654435761 >> 16) & 1:
            self.ctx.tracer = self.null
            return self.null
        tr = self.real_tracer
        tr.op = i
        self.ctx.tracer = tr
        self.traced_ops.add(i)
        return tr

    def record(self, i: int, seconds: float, kind: str) -> None:
        self.latency.append(seconds)
        self.busy += seconds
        self.by_kind[kind][i in self.traced_ops].append(seconds)

    def record_extra(self, seconds: float) -> None:
        """Time inside the program that belongs to no unit op (a write
        between searches): it counts toward ops_per_s, not latency."""
        self.busy += seconds

    def done(self) -> None:
        self.real_tracer.op = None
        self.ctx.tracer = self.real_tracer

    def out_of_time(self) -> bool:
        if clock() > self.ctx.deadline:
            self.ctx.truncated = True
            return True
        return False

    def end_to_end(self, filtered: list[float]) -> dict[str, float]:
        """ops_per_s, p50_ms, p99_ms and filtered_p50_ms. ops_per_s counts
        unit ops per second of busy time: time inside the program's calls,
        not the benchmark's own output checks. filtered_p50_ms is a
        per-layer metric: the per-document filter path in Python swings
        with the machine's speed more than the other timings do, beyond the
        largest bound an end-to-end metric may have."""
        return {"ops_per_s": len(self.latency) / self.busy
                if self.busy else 0.0,
                "p50_ms": quantile(self.latency, 50) * 1e3,
                "p99_ms": quantile(self.latency, 99) * 1e3,
                "filtered_p50_ms": quantile(filtered, 50) * 1e3}

    def trace_overhead(self) -> float:
        """Untraced over traced ops_per_s for the stream's mix of kinds."""
        off = on = 0.0
        for untraced, traced in self.by_kind.values():
            if untraced and traced:
                n = len(untraced) + len(traced)
                off += n * statistics.fmean(untraced)
                on += n * statistics.fmean(traced)
        return on / off if off else 0.0


def median_of(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def json_bytes(obj) -> int:
    """Size of obj as compact JSON, the form the program's logs use."""
    return len(json.dumps(obj, ensure_ascii=False,
                          separators=(",", ":")).encode("utf-8"))


def file_bytes(*paths: Path) -> int:
    return sum(p.stat().st_size for p in paths if p.exists())


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- environment record -------------------------------------------------------

def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked from the
    library itself; None when it cannot be found."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower()
                   and line.split()[-1].startswith("/")})
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit(root: Path) -> str | None:
    """Commit of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(root: Path) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "flush_policy": FLUSH_POLICY,
    }


class VirtualClock:
    """Seconds since the epoch, advanced only by the workload, so that
    timestamps and cache expiry depend on the inputs and not on speed."""

    def __init__(self, start: float = 1_700_000_000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now


# -- data directories -----------------------------------------------------------

CONVERSATIONS = "conversations.jsonl"
PROFILES = "profiles.jsonl"
SNAPSHOT = "index.snap"


def reopen(root: Path, tr, vclock=None):
    """Open whatever the data directory holds: both logs and the index
    snapshot. Returns (conversations, profiles, index); absent parts are
    None."""
    from contextdb import ConversationStore, ProfileStore, load_index

    kwargs = {} if vclock is None else {"clock": vclock}
    conv = prof = index = None
    if (root / CONVERSATIONS).exists():
        with tr.span("conversation.reopen"):
            conv = ConversationStore(root / CONVERSATIONS, **kwargs)
    if (root / PROFILES).exists():
        with tr.span("profiles.reopen"):
            prof = ProfileStore(root / PROFILES, **kwargs)
    if (root / SNAPSHOT).exists():
        with tr.span("index.snapshot.load"):
            index = load_index(root / SNAPSHOT)
    return conv, prof, index


def close_stores(*stores) -> None:
    for store in stores:
        if store is not None:
            store.close()


def timed_reopen(root: Path, tr):
    """Wall time of one reopen of a closed data directory (both logs plus
    load_index), started with no collection debt. Returns (seconds,
    stores); the caller closes the stores."""
    gc.collect()
    t0 = clock()
    opened = reopen(root, tr)
    return clock() - t0, opened


def spread_points(n_ops: int, count: int, first: bool = False) -> set[int]:
    """`count` unit-op indices spread evenly over n_ops ops: from op 0 on
    if `first`, else centred in equal slices."""
    if first:
        return {n_ops * i // count for i in range(count)}
    return {n_ops * (2 * i + 1) // (2 * count) for i in range(count)}


class SetupSamples:
    """setup_s, insert_per_s and restart_s samples, taken at pauses spread
    over the timed phase like the unit ops themselves. On a shared machine
    a slow spell lasts seconds to minutes; samples taken in a burst would
    all fall into the same spell.

    The live set-up that the timed loop runs on is the first set-up sample.
    setup_once(rep, tracer) sets up a fresh data directory (timed) and
    returns (seconds, insert_per_s, directory) with every store closed. It
    runs at setups - 1 pauses, the first before op 0; `reopens` further
    pauses each time one reopen of the latest such directory. When an index
    build is short next to a set-up, insert_once(tracer) builds a throwaway
    index from the live documents and returns its insert_per_s, at
    `inserts` further pauses: the median then rests on many builds spread
    over the run rather than on the few set-ups. A pause belongs to no unit
    op, and none starts past the deadline.
    """

    def __init__(self, timed: "Timed", setup_once, first: tuple,
                 n_ops: int, setups: int, reopens: int,
                 insert_once=None, inserts: int = 0):
        self.timed = timed
        self.setup_once = setup_once
        self.insert_once = insert_once
        self.setup_at = spread_points(n_ops, max(1, setups - 1), first=True)
        self.reopen_at = spread_points(n_ops, reopens)
        self.insert_at = (spread_points(n_ops, inserts)
                          if insert_once is not None and inserts else set())
        self.root: Path | None = None
        self.setup_s, self.insert_per_s = [first[0]], [first[1]]
        self.restart_s: list[float] = []

    def before(self, op: int) -> None:
        """Pause before unit op `op` if it is a pause point."""
        if (op not in self.setup_at and op not in self.reopen_at
                and op not in self.insert_at):
            return
        if self.timed.out_of_time():
            return
        tr = self.timed.real_tracer
        saved, tr.op = tr.op, None
        if op in self.setup_at or self.root is None:
            self._set_up(tr)
        if op in self.reopen_at:
            self._reopen(tr)
        if op in self.insert_at:
            gc.collect()
            self.insert_per_s.append(self.insert_once(tr))
        gc.collect()  # the next unit op inherits no collection debt
        tr.op = saved

    def finish(self) -> None:
        """After the timed loop: a run cut by the deadline still times one
        reopen. Removes the last set-up's directory."""
        tr = self.timed.real_tracer
        if not self.restart_s:
            if self.root is None:
                self._set_up(tr)
            self._reopen(tr)
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None

    def _set_up(self, tr) -> None:
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
        gc.collect()
        secs, rate, self.root = self.setup_once(len(self.setup_s), tr)
        self.setup_s.append(secs)
        self.insert_per_s.append(rate)

    def _reopen(self, tr) -> None:
        secs, opened = timed_reopen(self.root, tr)
        self.restart_s.append(secs)
        close_stores(*opened[:2])

    def metrics(self) -> dict[str, float]:
        return {"setup_s": median_of(self.setup_s),
                "insert_per_s": median_of(self.insert_per_s),
                "restart_s": median_of(self.restart_s)}

    def record(self) -> dict[str, int]:
        return {"setup_runs": len(self.setup_s),
                "insert_runs": len(self.insert_per_s),
                "restart_runs": len(self.restart_s)}


def user_payload(conv, prof, docs_bytes: int) -> int:
    """Live user bytes: message text and metadata, current profile fields,
    and the live documents (their text, metadata and 8*dim vector bytes,
    counted by the caller)."""
    total = docs_bytes
    if conv is not None:
        for session, count in conv.list_sessions():
            for m in conv.get_history(session, count):
                total += len(m.text.encode("utf-8")) + json_bytes(
                    dict(m.metadata))
    if prof is not None:
        for user in prof.list_users():
            total += json_bytes(dict(prof.get_profile(user).fields))
    return total


def profile_log_amplification(path: Path) -> float:
    """Profile log bytes per byte of the last record of each user, read
    from the log itself."""
    last: dict[str, int] = {}
    raw = path.read_bytes()
    for line in raw.splitlines():
        last[json.loads(line)["user_id"]] = len(line) + 1
    return len(raw) / sum(last.values()) if last else 0.0


def disk_metrics(root: Path, conv, prof, docs_bytes: int,
                 n_docs: int) -> dict:
    """disk_bytes_per_user_byte and the storage per-layer ratios of a
    closed-then-reopened data directory."""
    conv_b = file_bytes(root / CONVERSATIONS)
    prof_b = file_bytes(root / PROFILES)
    snap_b = file_bytes(root / SNAPSHOT)
    out = {"disk_bytes_per_user_byte":
           (conv_b + prof_b + snap_b) / user_payload(conv, prof, docs_bytes),
           "index.snapshot.bytes_per_doc": snap_b / n_docs}
    if conv is not None:
        messages = sum(n for _, n in conv.list_sessions())
        out["conversation.bytes_per_message"] = conv_b / messages
    if prof is not None:
        out["profiles.log_amplification"] = profile_log_amplification(
            root / PROFILES)
    return out
