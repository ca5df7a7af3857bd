"""The per-layer ledger: what each layer did during one traced loop.

Every metric names the layer (``src/repro`` module) it reads, the
end-to-end metrics it should move and the workloads it should move
them on.  Later changes cite these names; :data:`METRICS` is the
contract.

Times are per op (ms/op) unless the unit says otherwise: self time is
a span's duration minus what its child spans cover, "inclusive" is
the whole duration of the outermost matching span.  Counts are totals
over the traced loop, whose op count the workload fixes.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Tuple

from .tracer import OP_PREFIX, Span, self_times

NS_PER_MS = 1e6

GW, STORE, AUDIT = "gateway_small", "store_large", "fleet_audit"

CLIENT = "gateway.client.GatewayClient."
HANDLE = "gateway.server.GatewayApp.handle"
LOCK_ACQUIRES = tuple(f"parallel.locks.MemberLockSet.{m}" for m in (
    "acquire_member", "acquire_ascending", "_acquire_gate_shared",
    "_acquire_gate_exclusive"))
FLEET_AUDIT = "api.fleet.FleetStore.audit"
MEMBER_AUDIT = "api.store.TamperEvidentStore.audit"
ROTATE = "integrity.selfsec.AuditLog.rotate"
VERIFY_LINES = tuple(f"device.sero.SERODevice.{m}" for m in (
    "verify_line", "verify_lines", "verify_all"))
MEDIUM = "medium.medium.PatternedMedium."

#: Private callables the tracer wraps too: the lock-gate acquires run
#: inside ``MemberLockSet.shared()``/``exclusive()`` context managers,
#: whose public call only builds the manager.
EXTRA_BOUNDARIES = ("parallel.locks.MemberLockSet._acquire_gate_shared",
                    "parallel.locks.MemberLockSet._acquire_gate_exclusive")


def _status_error(_args, _kwargs, result) -> int:
    return int(result[0] >= 400)


def _rotated(_args, _kwargs, result) -> int:
    return int(result is not None)


def _lines(_args, _kwargs, result) -> int:
    return len(result) if isinstance(result, list) else 1


#: Span name → value recorder (see :class:`~perfbench.tracer.Tracer`).
SPAN_VALUES = {HANDLE: _status_error, ROTATE: _rotated,
               **{name: _lines for name in VERIFY_LINES}}


def _client_token(args, _kwargs):
    return args[0]._token


def _request_token(args, _kwargs):
    authorization = args[0].headers.get("Authorization", "")
    return authorization.partition(" ")[2].strip()


#: Cross-thread links: the server thread's HTTP handler adopts the
#: client call that presented the same bearer token (each client has
#: one request in flight).
PUBLISH = {CLIENT + m: _client_token for m in (
    "put", "get", "seal", "seal_many", "verify", "search", "audit")}
ADOPT = {f"gateway.server._GatewayHandler.{m}": _request_token
         for m in ("do_GET", "do_POST")}


class TraceView:
    """Queries over the spans of one traced loop."""

    def __init__(self, spans: Iterable[Span], modules: Dict[str, str],
                 counts: Dict[str, float]) -> None:
        spans = list(spans)
        ops = [s for s in spans if s.name.startswith(OP_PREFIX)]
        op_ids = {s.sid for s in ops}
        self.spans = [s for s in spans
                      if s.rid in op_ids and not s.name.startswith(OP_PREFIX)]
        self.ops = len(ops)
        self.op_ns = sum(s.duration for s in ops)
        self.modules = modules
        self.counts = counts
        self.by_id = {s.sid: s for s in self.spans}
        self.self_ns = self_times(spans)
        self.hits: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            self.hits[span.name] += 1

    # -- selection ------------------------------------------------------------

    def named(self, match: Callable[[str], bool]) -> List[Span]:
        return [s for s in self.spans if match(s.name)]

    def ancestors(self, span: Span):
        parent = self.by_id.get(span.parent)
        while parent is not None:
            yield parent
            parent = self.by_id.get(parent.parent)

    def outer(self, match: Callable[[str], bool]) -> List[Span]:
        """Matching spans with no matching ancestor (no double count
        of nested calls)."""
        return [s for s in self.named(match)
                if not any(match(a.name) for a in self.ancestors(s))]

    # -- aggregates -----------------------------------------------------------

    def per_op_ms(self, ns: float) -> float:
        return ns / NS_PER_MS / self.ops

    def self_ms(self, match) -> float:
        return self.per_op_ms(sum(self.self_ns[s.sid]
                                  for s in self.named(match)))

    def inclusive_ms(self, match) -> float:
        return self.per_op_ms(sum(s.duration for s in self.outer(match)))

    def count(self, match) -> int:
        return len(self.named(match))

    def value_sum(self, match) -> int:
        return sum(s.value or 0 for s in self.outer(match))

    def module_match(self, *prefixes: str,
                     exclude: Tuple[str, ...] = ()) -> Callable[[str], bool]:
        def match(name: str) -> bool:
            module = self.modules.get(name, "")
            return module.startswith(prefixes) and module not in exclude
        return match

    def fanout_ms(self) -> float:
        """Per fleet audit pass: its duration minus the member audits
        and the evidence-index ingest it contains."""
        passes = self.outer(lambda n: n == FLEET_AUDIT)
        if not passes:
            return 0.0
        inner = defaultdict(int)
        nested = lambda n: n == MEMBER_AUDIT or \
            self.modules.get(n, "").startswith("search.")
        for span in self.outer(nested):
            home = next((a for a in self.ancestors(span)
                         if a.name == FLEET_AUDIT), None)
            if home is not None:
                inner[home.sid] += span.duration
        total = sum(p.duration - inner[p.sid] for p in passes)
        return total / NS_PER_MS / len(passes)

    def coverage(self) -> float:
        """Layer self time over end-to-end op time.

        Every span's self time counts, so the outermost wrapped call
        of an op absorbs whatever runs unwrapped beneath it (stdlib
        HTTP, numpy): this shows that each op entered the traced
        layers, not that every inner boundary was wrapped.  The
        boundary check (:func:`missing_boundaries`) guards those."""
        return sum(self.self_ns[s.sid] for s in self.spans) / self.op_ns


def _eq(*names: str) -> Callable[[str], bool]:
    wanted = frozenset(names)
    return lambda name: name in wanted


def _prefix(*prefixes: str) -> Callable[[str], bool]:
    return lambda name: name.startswith(prefixes)


@dataclass(frozen=True)
class LayerMetric:
    """One ledger entry.

    ``moves`` names the end-to-end metrics a change in this layer
    should move, ``on`` the workloads it should move them on.
    ``boundaries`` are the wrapped callables the metric reads; on
    every workload in ``on`` each must be hit at least once, or the
    run fails — a layer that silently reads 0 means the tracer missed
    its boundary.  ``module:<prefix>`` stands for any callable of the
    modules under that prefix.
    """

    name: str
    unit: str
    moves: str
    on: Tuple[str, ...]
    read: Callable[[TraceView], float]
    boundaries: Tuple[str, ...] = ()


def _counted(key: str) -> Callable[[TraceView], float]:
    return lambda v: v.counts.get(key, 0.0)


_P50 = "put_p50_ms, seal_p50_ms, get_p50_ms, verify_p50_ms"

METRICS: List[LayerMetric] = [
    # gateway -----------------------------------------------------------------
    LayerMetric("gateway.rtt_ms", "ms/op",
                "every *_p50_ms, ops_per_s", (GW,),
                lambda v: v.inclusive_ms(_prefix(CLIENT)),
                (CLIENT + "put", CLIENT + "get", CLIENT + "search")),
    LayerMetric("gateway.handle_ms", "ms/op",
                "every *_p50_ms, ops_per_s", (GW,),
                lambda v: v.inclusive_ms(_eq(HANDLE)), (HANDLE,)),
    LayerMetric("gateway.transport_ms", "ms/op",
                "every *_p50_ms, ops_per_s", (GW,),
                lambda v: v.inclusive_ms(_prefix(CLIENT))
                - v.inclusive_ms(_eq(HANDLE))),
    LayerMetric("gateway.codec_ms", "ms/op",
                "every *_p50_ms, ops_per_s", (GW,),
                lambda v: v.self_ms(v.module_match("gateway.schemas")),
                ("gateway.schemas.b64encode", "gateway.schemas.b64decode")),
    LayerMetric("gateway.auth_ms", "ms/op",
                "every *_p50_ms, ops_per_s", (GW,),
                lambda v: v.inclusive_ms(
                    _eq("gateway.auth.TokenTable.resolve")),
                ("gateway.auth.TokenTable.resolve",)),
    LayerMetric("gateway.requests", "count",
                "ops_per_s", (GW,), lambda v: v.count(_eq(HANDLE))),
    LayerMetric("gateway.errors", "count",
                "error_rate", (), lambda v: v.value_sum(_eq(HANDLE))),
    # parallel.locks ----------------------------------------------------------
    LayerMetric("locks.wait_ms", "ms/op",
                "write_p95_ms, read_p95_ms", (GW,),
                lambda v: v.inclusive_ms(_eq(*LOCK_ACQUIRES)),
                LOCK_ACQUIRES[::2]),
    LayerMetric("locks.acquires", "count",
                "write_p95_ms, read_p95_ms", (GW,),
                lambda v: v.count(_eq(*LOCK_ACQUIRES))),
    # api.fleet + parallel.executor -----------------------------------------
    LayerMetric("fleet.self_ms", "ms/op", "audit_p50_ms",
                (AUDIT,), lambda v: v.self_ms(v.module_match("api.fleet")),
                ("module:api.fleet",)),
    LayerMetric("fleet.route_ms", "ms/op", "audit_p50_ms",
                (AUDIT,),
                lambda v: v.inclusive_ms(_eq("api.fleet.FleetStore.route")),
                ("api.fleet.FleetStore.route",)),
    LayerMetric("fleet.fanout_ms", "ms/audit", "audit_p50_ms",
                (AUDIT,), TraceView.fanout_ms, (FLEET_AUDIT, MEMBER_AUDIT)),
    # api.store / api.policy --------------------------------------------------
    LayerMetric("store.self_ms", "ms/op",
                "put_p50_ms, seal_p50_ms", (STORE,),
                lambda v: v.self_ms(v.module_match("api.store")),
                ("module:api.store",)),
    LayerMetric("policy.resolves_per_op", "calls/op", "ops_per_s",
                (STORE, GW),
                lambda v: v.count(_prefix("api.policy.resolve_")) / v.ops,
                ("module:api.policy",)),
    # integrity.selfsec -------------------------------------------------------
    LayerMetric("selfsec.log_ms", "ms/op", "write_p95_ms",
                (STORE,),
                lambda v: v.inclusive_ms(v.module_match("integrity.selfsec")),
                ("integrity.selfsec.AuditLog.log",)),
    LayerMetric("selfsec.rotations", "count", "write_p95_ms",
                (STORE,), lambda v: v.value_sum(_eq(ROTATE)), (ROTATE,)),
    # fs ----------------------------------------------------------------------
    LayerMetric("fs.self_ms", "ms/op", "write_p95_ms, space_amp",
                (STORE,), lambda v: v.self_ms(v.module_match("fs.")),
                ("module:fs.lfs",)),
    LayerMetric("fs.cleaner_ms", "ms/op", "write_p95_ms",
                (STORE,),
                lambda v: v.inclusive_ms(_eq("fs.cleaner.run_cleaner")),
                ("fs.cleaner.run_cleaner",)),
    LayerMetric("fs.cleaner_runs", "count", "write_p95_ms",
                (STORE,), _counted("fs.cleaner_runs")),
    LayerMetric("fs.blocks_written", "count",
                "write_p95_ms, space_amp", (STORE,),
                _counted("fs.blocks_written")),
    LayerMetric("fs.blocks_cleaned", "count", "write_p95_ms",
                (STORE,), _counted("fs.blocks_cleaned")),
    LayerMetric("fs.write_amp", "ratio", "write_p95_ms, space_amp",
                (STORE,), _counted("fs.write_amp")),
    # device (sero) -----------------------------------------------------------
    LayerMetric("device.self_ms", "ms/op",
                f"{_P50}, sim_device_ms_per_op", (STORE, AUDIT),
                lambda v: v.self_ms(v.module_match(
                    "device.", exclude=("device.ecc", "device.sector"))),
                ("module:device.sero",)),
    LayerMetric("device.block_reads", "count",
                f"{_P50}, sim_device_ms_per_op", (STORE, AUDIT),
                _counted("device.block_reads")),
    LayerMetric("device.block_writes", "count",
                f"{_P50}, sim_device_ms_per_op", (STORE,),
                _counted("device.block_writes")),
    LayerMetric("device.lines_heated", "count",
                "seal_p50_ms, sim_device_ms_per_op", (STORE,),
                _counted("device.lines_heated")),
    LayerMetric("device.lines_verified", "count",
                "verify_p50_ms, audit_p50_ms, sim_device_ms_per_op",
                (STORE, AUDIT), lambda v: v.value_sum(_eq(*VERIFY_LINES)),
                ("device.sero.SERODevice.verify_lines",)),
] + [
    LayerMetric(f"device.sim_ms.{category}", "ms/op",
                "sim_device_ms_per_op", (STORE, AUDIT),
                _counted(f"device.sim_ms.{category}"))
    for category in ("seek", "mrb", "mwb", "erb", "ewb")
] + [
    # device.ecc / device.sector ----------------------------------------------
    LayerMetric("ecc.encode_ms", "ms/op", "put_p50_ms",
                (STORE,), lambda v: v.self_ms(_eq("device.ecc.encode")),
                ("device.ecc.encode",)),
    LayerMetric("ecc.decode_ms", "ms/op",
                "get_p50_ms, verify_p50_ms, audit_p50_ms", (STORE, AUDIT),
                lambda v: v.self_ms(_eq("device.ecc.decode")),
                ("device.ecc.decode",)),
    LayerMetric("ecc.decode_calls", "count",
                "get_p50_ms, verify_p50_ms, audit_p50_ms", (STORE, AUDIT),
                lambda v: v.count(_eq("device.ecc.decode"))),
    LayerMetric("sector.encode_ms", "ms/op", "put_p50_ms",
                (STORE,),
                lambda v: v.self_ms(_prefix("device.sector.encode_")),
                ("module:device.sector",)),
    LayerMetric("sector.decode_ms", "ms/op",
                "get_p50_ms, verify_p50_ms, audit_p50_ms", (AUDIT, STORE),
                lambda v: v.self_ms(_prefix("device.sector.decode_")),
                ("device.sector.decode_frame_run",)),
    # crypto ------------------------------------------------------------------
    LayerMetric("crc.crc32_ms", "ms/op",
                "audit_p50_ms, seal_p50_ms", (AUDIT, STORE),
                lambda v: v.self_ms(_eq("crypto.crc.crc32")),
                ("crypto.crc.crc32",)),
    LayerMetric("crc.crc16_ms", "ms/op",
                "audit_p50_ms, seal_p50_ms", (AUDIT, STORE),
                lambda v: v.self_ms(_eq("crypto.crc.crc16_ccitt")),
                ("crypto.crc.crc16_ccitt",)),
    LayerMetric("crc.calls", "count", "audit_p50_ms, seal_p50_ms",
                (AUDIT, STORE),
                lambda v: v.count(_eq("crypto.crc.crc32",
                                      "crypto.crc.crc16_ccitt"))),
    LayerMetric("hash.line_hash_ms", "ms/op",
                "audit_p50_ms, seal_p50_ms", (AUDIT, STORE),
                lambda v: v.inclusive_ms(_prefix("crypto.hashutil.line_hash")),
                ("crypto.hashutil.line_hash_many",)),
    LayerMetric("manchester.ms", "ms/op", "seal_p50_ms", (STORE,),
                lambda v: v.self_ms(v.module_match("crypto.manchester")),
                ("module:crypto.manchester",)),
    # medium ------------------------------------------------------------------
    LayerMetric("medium.erb_ms", "ms/op",
                "seal_p50_ms, verify_p50_ms, audit_p50_ms", (STORE, AUDIT),
                lambda v: v.self_ms(_eq(MEDIUM + "erb_span",
                                        MEDIUM + "erb_at")),
                ("module:medium.medium",)),
    LayerMetric("medium.heat_ms", "ms/op", "seal_p50_ms",
                (STORE,), lambda v: v.self_ms(_eq(MEDIUM + "heat_span")),
                (MEDIUM + "heat_span",)),
    LayerMetric("medium.mag_ms", "ms/op",
                "put_p50_ms, get_p50_ms, verify_p50_ms, audit_p50_ms",
                (STORE, AUDIT),
                lambda v: v.self_ms(_eq(MEDIUM + "read_mag_span",
                                        MEDIUM + "write_mag_span")),
                (MEDIUM + "read_mag_span",)),
    # search ------------------------------------------------------------------
    LayerMetric("search.ingest_ms", "ms/op",
                "search_p50_ms, put_p50_ms, seal_p50_ms", (GW, AUDIT),
                lambda v: v.inclusive_ms(
                    _prefix("search.index.EvidenceIndex.note_")),
                ("search.index.EvidenceIndex.note_audit",)),
    LayerMetric("search.query_ms", "ms/op", "search_p50_ms",
                (GW, AUDIT),
                lambda v: v.inclusive_ms(
                    _eq("search.index.EvidenceIndex.search")),
                ("search.index.EvidenceIndex.search",)),
    LayerMetric("search.journal_events", "count",
                "search_p50_ms, put_p50_ms, seal_p50_ms", (GW, AUDIT),
                lambda v: v.count(_eq("search.index.IndexJournal.append")),
                ("search.index.IndexJournal.append",)),
]

#: Metrics the run itself adds after the ledger: measured, not read
#: from spans.
RUN_METRICS = [
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "higher"),
    ("error_rate", "ratio", "lower"),
]


def missing_boundaries(view: TraceView, workload: str,
                       wrapped: Iterable[str]) -> List[str]:
    """Boundaries that should have been hit on ``workload`` but were
    not (or were never wrapped)."""
    wrapped = set(wrapped)
    missing = []
    for metric in METRICS:
        if workload not in metric.on:
            continue
        for boundary in metric.boundaries:
            if boundary.startswith("module:"):
                prefix = boundary.partition(":")[2]
                if not any(view.modules.get(n, "").startswith(prefix)
                           for n in view.hits):
                    missing.append(f"{metric.name}: {boundary}")
            elif boundary not in wrapped or not view.hits.get(boundary):
                missing.append(f"{metric.name}: {boundary}")
    return missing


def read_ledger(view: TraceView) -> Dict[str, float]:
    return {m.name: float(m.read(view)) for m in METRICS}

