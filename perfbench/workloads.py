"""The benchmark's three workloads.

Each workload turns ``--seed`` into a fixed list of inputs once, then
runs *episodes*: set up a fresh fleet (timed as set-up), run the whole
input list as a closed loop (timed op by op), check every output, and
tear down.  The op count is fixed, so device fill, index size and
cleaner cycles are the same for any program that runs the inputs; a
faster program finishes an episode sooner.

Every workload pins the fleet executor (``serial``) and lock mode
(``shard``) so ambient ``REPRO_*`` settings cannot change what runs.
"""

from __future__ import annotations

import random
import threading
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from repro.api.fleet import FleetStore
from repro.api.store import StoreConfig
from repro.device.sector import BLOCK_SIZE
from repro.gateway import (GatewayApp, GatewayClient, GatewayServer,
                           TokenTable, confine)
from repro.search import EvidenceIndex
from repro.security.attacks import mwb_data

EXECUTOR = "serial"
LOCK_MODE = "shard"
INTACT = "intact"
MISMATCH = "hash-mismatch"

#: How many failure messages a run keeps for its report.
MAX_FAILURE_NOTES = 5


class Recorder:
    """Per-op latency samples and the attempted/failed tally.

    ``call`` times one op as its caller sees it; ``check`` books a
    wrong output against the op.  ``timeline`` holds every completed
    op as ``(kind, seconds)`` in the order the ops completed.
    Thread-safe: the gateway workload records from two client threads.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.timeline: List[Tuple[str, float]] = []
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        self._lock = threading.Lock()

    def call(self, kind: str, fn: Callable, *args, **kwargs) -> Any:
        """Run ``fn`` as one op of ``kind``; a raised error counts as
        a failed op and returns None."""
        scope = self.tracer.op(kind) if self.tracer is not None \
            else nullcontext()
        t0 = time.perf_counter()
        try:
            with scope:
                result = fn(*args, **kwargs)
        except Exception as exc:  # every failure is booked, none lost
            with self._lock:
                self.attempted += 1
            self.fail(f"{kind}: {exc!r}")
            return None
        elapsed = time.perf_counter() - t0
        with self._lock:
            self.attempted += 1
            self.samples[kind].append(elapsed)
            self.timeline.append((kind, elapsed))
        return result

    def fail(self, note: str) -> None:
        with self._lock:
            self.failed += 1
            if len(self.notes) < MAX_FAILURE_NOTES:
                self.notes.append(note)

    def check(self, ok: bool, note: str) -> None:
        if not ok:
            self.fail(note)

    @property
    def ops(self) -> int:
        return sum(len(v) for v in self.samples.values())


# -- checked ops: each times one call and checks what it returned ------------


def put_op(rec: Recorder, put: Callable, path: str, data: bytes,
           **kwargs) -> None:
    info = rec.call("put", put, path, data, **kwargs)
    rec.check(info is not None and info.size == len(data),
              f"put {path}: {info}")


def seal_op(rec: Recorder, seal_many: Callable, paths: List[str],
            timestamp: int, stored_paths: List[str]) -> None:
    receipts = rec.call("seal", seal_many, paths, timestamp=timestamp)
    rec.check(receipts is not None
              and [r.path for r in receipts] == stored_paths,
              f"seal {paths}: {receipts}")


def verify_op(rec: Recorder, verify: Callable, path: str,
              expect: str = INTACT) -> None:
    report = rec.call("verify", verify, path)
    rec.check(report is not None and report.status.value == expect,
              f"verify {path}: {report}, expected {expect}")


def get_op(rec: Recorder, get: Callable, path: str, data: bytes) -> None:
    rec.check(rec.call("get", get, path) == data, f"get {path}: wrong bytes")


def search_op(rec: Recorder, search: Callable, query: str,
              total: int) -> None:
    result = rec.call("search", search, query)
    rec.check(result is not None and result.total == total,
              f"search {query}: {result and result.total} hits, "
              f"expected {total}")


def clean_audit_op(rec: Recorder, audit: Callable) -> None:
    report = rec.call("audit", audit)
    rec.check(report is not None and report.clean,
              f"final audit not clean: {report}")


@dataclass
class Episode:
    """One set-up + timed loop + teardown."""

    setup_s: float = 0.0
    loop_s: float = 0.0
    ops: int = 0
    counts: Dict[str, float] = field(default_factory=dict)


# -- fleet accounting ---------------------------------------------------------


def fleet_counters(fleet: FleetStore) -> Dict[str, float]:
    """Summed device and file-system counters of every member."""
    out: Dict[str, float] = defaultdict(float)
    for member in fleet.members:
        account = member.device.account
        out["device.elapsed_s"] += account.elapsed
        for category, seconds in account.by_category.items():
            out[f"device.sim_s.{category}"] += seconds
        for category, ops in account.op_counts.items():
            out[f"device.dots.{category}"] += ops
        out["device.lines_heated"] += len(member.device.heated_lines)
        stats = member.fs.stats()
        for key in ("blocks_written", "blocks_cleaned", "cleaner_runs"):
            out[f"fs.{key}"] += stats.get(key, 0)
        out["fs.blocks_in_use"] += (member.device.total_blocks
                                    - stats["blocks_free"])
    return dict(out)


def dots_per_block(fleet: FleetStore) -> int:
    start, end = fleet.members[0].device.geometry.block_span(0)
    return end - start


def episode_counts(fleet: FleetStore, before: Dict[str, float],
                   ops: int, live_bytes: int,
                   user_bytes_written: int) -> Dict[str, float]:
    """The deterministic outcome of one episode: device time and
    counts, file-system counts, space use."""
    after = fleet_counters(fleet)
    delta = {k: after.get(k, 0.0) - before.get(k, 0.0)
             for k in set(after) | set(before)}
    per_block = dots_per_block(fleet)
    counts = {
        "sim_device_ms_per_op": delta["device.elapsed_s"] * 1e3 / ops,
        "space_amp": after["fs.blocks_in_use"] * BLOCK_SIZE / live_bytes,
        "fs.blocks_written": delta["fs.blocks_written"],
        "fs.blocks_cleaned": delta["fs.blocks_cleaned"],
        "fs.cleaner_runs": delta["fs.cleaner_runs"],
        "fs.write_amp": (delta["fs.blocks_written"] * BLOCK_SIZE
                         / user_bytes_written
                         if user_bytes_written else 0.0),
        "device.block_reads": delta.get("device.dots.mrb", 0.0)
        / per_block,
        "device.block_writes": delta.get("device.dots.mwb", 0.0)
        / per_block,
        "device.lines_heated": delta["device.lines_heated"],
    }
    for key, value in delta.items():
        if key.startswith("device.sim_s."):
            counts["device.sim_ms." + key.rsplit(".", 1)[-1]] = \
                value * 1e3 / ops
    return counts


# -- workloads ----------------------------------------------------------------


def deal(rng: random.Random, mix: Dict[str, int],
         feasible: Dict[str, Callable[[], bool]]):
    """Yield op kinds in a seeded order that uses up ``mix`` exactly:
    each step draws among the kinds the caller's model can run now,
    weighted by how many of each are left.  The seed moves order and
    targets, never the op count of a kind, so per-op figures compare
    across seeds."""
    left = dict(mix)
    while any(left.values()):
        kinds = [k for k, n in left.items() if n and feasible[k]()]
        if not kinds:
            raise ValueError(f"op mix cannot be dealt: {left} left")
        kind = rng.choices(kinds, [left[k] for k in kinds])[0]
        left[kind] -= 1
        yield kind


class Workload:
    """Inputs from a seed; ``episode`` runs them once."""

    name = ""
    #: Counts (or count-name prefixes) that depend on how concurrent
    #: callers interleave, so two episodes of one seed may differ on
    #: them.
    ORDER_DEPENDENT: Tuple[str, ...] = ()
    #: One caller runs the whole op list in order, so every episode
    #: issues the same ops in the same order.
    ONE_CALLER = True

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def rng(self, stream: str) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{stream}")

    def episode(self, rec: Recorder, *, before_loop=None,
                after_loop=None) -> Episode:
        """Set up, run the loop, check, tear down.  ``before_loop`` /
        ``after_loop`` run untimed around the loop (the traced run
        installs and removes its tracer there)."""
        raise NotImplementedError


class GatewaySmall(Workload):
    """Two rw tenants, one closed-loop client thread each, against an
    in-process gateway over loopback; 16 B objects on a 4-member
    fleet."""

    name = "gateway_small"
    TENANTS = ("tenant0", "tenant1")
    MEMBERS = 4
    BLOCKS = 1024
    PAYLOAD = 16
    #: Per tenant: how many ops of each kind (110 in all).
    MIX = {"new": 20, "overwrite": 13, "seal": 8, "verify": 22,
           "get": 28, "search": 19}
    SEAL_BATCH = 2
    FINAL_AUDITS = 8
    #: The sled's seek distance follows the order in which the two
    #: tenants' requests reach a shared member.
    ORDER_DEPENDENT = ("sim_device_ms_per_op", "device.sim_ms.")
    ONE_CALLER = False

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.inputs = {t: self._ops(self.rng(t)) for t in self.TENANTS}

    def _ops(self, rng: random.Random) -> List[Tuple]:
        """One tenant's seeded put / seal / verify / get / search mix
        over its own objects, with each op's expected outcome."""
        ops: List[Tuple] = []
        unsealed: List[str] = []
        sealed: List[str] = []
        payload: Dict[str, bytes] = {}
        feasible = {"new": lambda: True,
                    "overwrite": lambda: bool(unsealed),
                    "seal": lambda: len(unsealed) >= self.SEAL_BATCH,
                    "verify": lambda: bool(sealed),
                    "get": lambda: bool(payload),
                    "search": lambda: True}
        for i, kind in enumerate(deal(rng, self.MIX, feasible)):
            if kind in ("new", "overwrite"):
                if kind == "new":
                    path = f"/obj/{len(payload)}"
                    unsealed.append(path)
                else:
                    path = rng.choice(unsealed)
                payload[path] = rng.randbytes(self.PAYLOAD)
                ops.append(("put", path, payload[path], kind == "overwrite"))
            elif kind == "seal":
                batch = rng.sample(unsealed, self.SEAL_BATCH)
                for path in batch:
                    unsealed.remove(path)
                    sealed.append(path)
                ops.append(("seal", tuple(batch), i))
            elif kind == "verify":
                ops.append(("verify", rng.choice(sealed)))
            elif kind == "get":
                path = rng.choice(sorted(payload))
                ops.append(("get", path, payload[path]))
            else:
                flag = rng.random() < 0.5
                expect = len(sealed) if flag else len(unsealed)
                ops.append(("search", f"sealed:{str(flag).lower()}",
                            expect))
        return ops

    @staticmethod
    def _run_tenant(rec: Recorder, client: GatewayClient, tenant: str,
                    ops: List[Tuple], barrier: threading.Barrier) -> None:
        barrier.wait(timeout=60)
        for op in ops:
            kind = op[0]
            if kind == "put":
                put_op(rec, client.put, op[1], op[2], overwrite=op[3])
            elif kind == "seal":
                seal_op(rec, client.seal_many, list(op[1]), op[2],
                        [confine(tenant, p) for p in op[1]])
            elif kind == "verify":
                verify_op(rec, client.verify, op[1])
            elif kind == "get":
                get_op(rec, client.get, op[1], op[2])
            else:
                search_op(rec, client.search, op[1], op[2])

    def episode(self, rec: Recorder, *, before_loop=None,
                after_loop=None) -> Episode:
        ep = Episode()
        t0 = time.perf_counter()
        fleet = FleetStore.create(self.MEMBERS,
                                  StoreConfig(total_blocks=self.BLOCKS),
                                  executor=EXECUTOR, lock_mode=LOCK_MODE)
        spec = ";".join(["admin-tok=admin"]
                        + [f"tok-{t}={t}:rw" for t in self.TENANTS])
        app = GatewayApp(fleet, TokenTable.from_spec(spec),
                         lock_mode=LOCK_MODE)
        server = GatewayServer(app).start()
        clients = [GatewayClient(server.address, f"tok-{t}", tenant=t)
                   for t in self.TENANTS]
        admin = GatewayClient(server.address, "admin-tok")
        try:
            for client in clients + [admin]:
                client.healthz()  # connect before the clock starts
            ep.setup_s = time.perf_counter() - t0
            before = fleet_counters(fleet)
            if before_loop is not None:
                before_loop()
            ops_before = rec.ops
            barrier = threading.Barrier(len(clients) + 1)
            threads = [threading.Thread(
                target=self._run_tenant,
                args=(rec, client, t, self.inputs[t], barrier),
                name=f"perfbench-{t}")
                for client, t in zip(clients, self.TENANTS)]
            for thread in threads:
                thread.start()
            barrier.wait(timeout=60)
            t1 = time.perf_counter()
            for thread in threads:
                thread.join()
            for _ in range(self.FINAL_AUDITS):
                clean_audit_op(rec, admin.audit)
            ep.loop_s = time.perf_counter() - t1
            if after_loop is not None:
                after_loop()
            ep.ops = rec.ops - ops_before
            written = sum(len(op[2]) for ops in self.inputs.values()
                          for op in ops if op[0] == "put")
            live = self.MIX["new"] * len(self.TENANTS) * self.PAYLOAD
            ep.counts = episode_counts(fleet, before, ep.ops, live, written)
        finally:
            for client in clients + [admin]:
                client.close()
            server.close()
        return ep


class StoreLarge(Workload):
    """One in-process caller on ``FleetStore``, 24 KiB objects: puts,
    overwrites and deletes that wrap the log and run the cleaner, with
    verifies of objects sealed at set-up and gets."""

    name = "store_large"
    MEMBERS = 2
    BLOCKS = 1536
    PAYLOAD = 24 * 1024
    #: Set-up writes and seals SEAL_BATCHES batches of SEAL_BATCH
    #: objects on the fresh log, for the loop's verifies to read.  The
    #: loop itself seals nothing: after this churn, ``seal_many`` fails
    #: on some seeds with ``NoSpaceError('no free aligned extent ...')``
    #: because the seal path cleans at most 8 segments to find an
    #: aligned extent, so sealing a churned log is left out until that
    #: is fixed.
    SEAL_BATCHES = 4
    SEAL_BATCH = 2
    #: The loop, by kind (488 ops); overwrites outnumber new objects so
    #: most writes turn live blocks dead for the cleaner.
    MIX = {"new": 56, "overwrite": 160, "delete": 44, "verify": 80,
           "get": 148}
    MAX_UNSEALED = 14
    #: Instruction-log chunk size: small enough that the log seals
    #: (heats) a chunk several times per episode.
    LOG_CHUNK = 1024
    FINAL_AUDITS = 3

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = self.rng("ops")
        # Sealed objects share /obj with the churn.  Kept in their own
        # subdirectories, they make the churn's puts fail with
        # NoSpaceError (WMRM area exhausted) on most seeds, an open
        # cleaner defect.
        self.sealed = [[f"/obj/s{b}-{i}" for i in range(self.SEAL_BATCH)]
                       for b in range(self.SEAL_BATCHES)]
        self.payload = {path: rng.randbytes(self.PAYLOAD)
                        for batch in self.sealed for path in batch}
        self.inputs, self.final_live = self._ops(rng)

    def _ops(self, rng: random.Random):
        ops: List[Tuple] = []
        unsealed: List[str] = []
        sealed = [path for batch in self.sealed for path in batch]
        payload: Dict[str, bytes] = dict(self.payload)
        feasible = {"new": lambda: len(unsealed) < self.MAX_UNSEALED,
                    "overwrite": lambda: bool(unsealed),
                    "delete": lambda: bool(unsealed),
                    "verify": lambda: True,
                    "get": lambda: True}
        for kind in deal(rng, self.MIX, feasible):
            if kind == "new":
                path = f"/obj/{len(ops)}"
                unsealed.append(path)
                payload[path] = rng.randbytes(self.PAYLOAD)
                ops.append(("put", path, payload[path]))
            elif kind == "overwrite":
                path = rng.choice(unsealed)
                payload[path] = rng.randbytes(self.PAYLOAD)
                ops.append(("overwrite", path, payload[path]))
            elif kind == "delete":
                path = rng.choice(unsealed)
                unsealed.remove(path)
                del payload[path]
                ops.append(("delete", path))
            elif kind == "verify":
                ops.append(("verify", rng.choice(sealed)))
            else:
                path = rng.choice(sorted(payload))
                ops.append(("get", path, payload[path]))
        return ops, sum(len(v) for v in payload.values())

    def episode(self, rec: Recorder, *, before_loop=None,
                after_loop=None) -> Episode:
        ep = Episode()
        t0 = time.perf_counter()
        fleet = FleetStore.create(
            self.MEMBERS,
            StoreConfig(total_blocks=self.BLOCKS, audit_log=True,
                        audit_rotate_bytes=self.LOG_CHUNK),
            executor=EXECUTOR, lock_mode=LOCK_MODE)
        for stamp, batch in enumerate(self.sealed):
            for path in batch:
                fleet.put(path, self.payload[path], make_parents=True)
            receipts = fleet.seal_many(batch, timestamp=stamp)
            rec.check([r.path for r in receipts] == batch,
                      f"set-up seal {batch}: {receipts}")
        ep.setup_s = time.perf_counter() - t0
        before = fleet_counters(fleet)
        if before_loop is not None:
            before_loop()
        ops_before = rec.ops
        t1 = time.perf_counter()
        for op in self.inputs:
            kind = op[0]
            if kind in ("put", "overwrite"):
                put_op(rec, fleet.put, op[1], op[2],
                       overwrite=kind == "overwrite", make_parents=True)
            elif kind == "delete":
                rec.call("delete", fleet.delete, op[1])
            elif kind == "verify":
                verify_op(rec, fleet.verify, op[1])
            else:
                get_op(rec, fleet.get, op[1], op[2])
        for _ in range(self.FINAL_AUDITS):
            clean_audit_op(rec, fleet.audit)
        ep.loop_s = time.perf_counter() - t1
        if after_loop is not None:
            after_loop()
        ep.ops = rec.ops - ops_before
        written = sum(len(op[2]) for op in self.inputs
                      if op[0] in ("put", "overwrite"))
        ep.counts = episode_counts(fleet, before, ep.ops, self.final_live,
                                   written)
        return ep


class FleetAudit(Workload):
    """A fleet filled with sealed lines, one of them forged; the loop
    audits and searches, with spot verifies and gets, and writes
    nothing."""

    name = "fleet_audit"
    MEMBERS = 4
    BLOCKS = 1024
    PAYLOAD = 2048
    OBJECTS = 48
    SEAL_BATCH = 8
    AUDITS = 20
    #: The reads after each audit pass, in seeded order.
    READS = {"search": 10, "verify": 5, "get": 5}
    #: Block 1 of an object's line holds its inode, block 2 its first
    #: data block: the forgery rewrites data, as the paper's attacker
    #: would, so the object still resolves and only its hash betrays it.
    FORGED_OFFSET = 2
    ALERT = "forgery"
    QUERY = f"verdict:{MISMATCH}"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = self.rng("fill")
        self.paths = [f"/arch/{i}" for i in range(self.OBJECTS)]
        self.payload = {p: rng.randbytes(self.PAYLOAD) for p in self.paths}
        self.forged = rng.choice(self.paths)
        self.inputs = self._reads(self.rng("reads"))

    def _reads(self, rng: random.Random) -> List[List[Tuple]]:
        """Per audit pass, the seeded reads that follow it."""
        untouched = [p for p in self.paths if p != self.forged]
        queries = ((self.QUERY, 1), ("sealed:true", self.OBJECTS),
                   (f"verdict:{INTACT}", self.OBJECTS - 1))
        rounds = []
        for _ in range(self.AUDITS):
            kinds = [k for k, n in self.READS.items() for _ in range(n)]
            rng.shuffle(kinds)
            reads = []
            for kind in kinds:
                if kind == "search":
                    reads.append(("search",) + rng.choice(queries))
                elif kind == "verify":
                    path = rng.choice(self.paths)
                    reads.append(("verify", path, MISMATCH
                                  if path == self.forged else INTACT))
                else:
                    path = rng.choice(untouched)
                    reads.append(("get", path, self.payload[path]))
            rounds.append(reads)
        return rounds

    def _check_audit(self, rec: Recorder, report, member: int,
                     line_start: int) -> None:
        if report is None:
            return
        bad = [(r.member, r.report.line_start, r.report.status.value)
               for r in report.member_records
               if r.report.status.value != INTACT]
        rec.check(bad == [(member, line_start, MISMATCH)],
                  f"audit: expected exactly the forged line "
                  f"m{member}@{line_start} as {MISMATCH}, got {bad}")

    def episode(self, rec: Recorder, *, before_loop=None,
                after_loop=None) -> Episode:
        ep = Episode()
        t0 = time.perf_counter()
        fleet = FleetStore.create(self.MEMBERS,
                                  StoreConfig(total_blocks=self.BLOCKS),
                                  executor=EXECUTOR, lock_mode=LOCK_MODE)
        index = EvidenceIndex()
        fleet.attach_indexer(index)
        receipts = {}
        for start in range(0, self.OBJECTS, self.SEAL_BATCH):
            batch = self.paths[start:start + self.SEAL_BATCH]
            for path in batch:
                fleet.put(path, self.payload[path], make_parents=True)
            for receipt in fleet.seal_many(batch, timestamp=start):
                receipts[receipt.path] = receipt
        member = fleet.route(self.forged)
        line_start = receipts[self.forged].line_start
        mwb_data(fleet.members[member].device, line_start,
                 target_offset=self.FORGED_OFFSET)
        index.register_alert(self.ALERT, self.QUERY)
        ep.setup_s = time.perf_counter() - t0
        before = fleet_counters(fleet)
        if before_loop is not None:
            before_loop()
        ops_before = rec.ops
        t1 = time.perf_counter()
        for reads in self.inputs:
            report = rec.call("audit", fleet.audit)
            self._check_audit(rec, report, member, line_start)
            for kind, path_or_query, expect in reads:
                if kind == "search":
                    search_op(rec, index.search, path_or_query, expect)
                elif kind == "verify":
                    verify_op(rec, fleet.verify, path_or_query, expect)
                else:
                    get_op(rec, fleet.get, path_or_query, expect)
        ep.loop_s = time.perf_counter() - t1
        if after_loop is not None:
            after_loop()
        alerts = [(a.name, a.doc_id) for a in index.alerts]
        rec.check(alerts == [(self.ALERT, f"obj:{self.forged}")],
                  f"standing query fired {alerts}, expected exactly one "
                  f"alert on obj:{self.forged}")
        ep.ops = rec.ops - ops_before
        ep.counts = episode_counts(fleet, before, ep.ops,
                                   self.OBJECTS * self.PAYLOAD, 0)
        return ep


WORKLOADS = {w.name: w for w in (GatewaySmall, StoreLarge, FleetAudit)}
