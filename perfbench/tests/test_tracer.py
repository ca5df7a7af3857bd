"""Span arithmetic, patching and restoring of the tracer."""

import threading

import repro.crypto.crc as crc
import repro.device.sector as sector
import repro.fs.cleaner as cleaner
from perfbench import ledger
from perfbench.tracer import Span, Tracer, import_all, self_times


def span(sid, start, end, parent=0, name="x"):
    return Span(sid, name, start, end, parent, 1, None)


def test_self_time_of_nested_spans():
    spans = [span(1, 0, 100), span(2, 10, 60, parent=1),
             span(3, 20, 30, parent=2)]
    assert self_times(spans) == {1: 50, 2: 40, 3: 10}


def test_self_time_of_sibling_spans():
    spans = [span(1, 0, 100), span(2, 10, 30, parent=1),
             span(3, 50, 90, parent=1)]
    assert self_times(spans)[1] == 40


def test_overlapping_children_are_covered_once():
    # two member tasks on a thread pool under one fleet pass
    spans = [span(1, 0, 100), span(2, 10, 60, parent=1),
             span(3, 40, 80, parent=1)]
    assert self_times(spans)[1] == 30


def test_child_outliving_its_parent_is_clipped():
    # a linked server-side span that ends after the client gave up
    spans = [span(1, 0, 100), span(2, 90, 150, parent=1)]
    assert self_times(spans)[1] == 90


def test_uninstall_restores_every_patched_callable():
    modules = import_all()
    originals = {"crc32": crc.crc32, "sector_crc32": sector.crc32,
                 "encode": sector.ecc.encode,
                 "run_cleaner": cleaner.run_cleaner}
    tracer = Tracer(extra=ledger.EXTRA_BOUNDARIES).install(modules)
    patches = tracer.patches
    try:
        assert crc.crc32 is not originals["crc32"]
        # by-name import patched where the caller looks it up
        assert sector.crc32 is crc.crc32
        assert sector.ecc.encode is not originals["encode"]
        assert cleaner.run_cleaner is not originals["run_cleaner"]
        assert crc.crc32.__wrapped__ is originals["crc32"]
    finally:
        tracer.uninstall()
    assert patches and not tracer.patches
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original, (owner, attr)
    assert crc.crc32 is originals["crc32"]
    assert sector.crc32 is originals["crc32"]
    assert sector.ecc.encode is originals["encode"]
    assert cleaner.run_cleaner is originals["run_cleaner"]


def test_spans_nest_and_share_the_op_request_id():
    tracer = Tracer().install(import_all())
    try:
        with tracer.op("crc"):
            sector.encode_frame(3, b"\x00" * 512)
    finally:
        tracer.uninstall()
    by_name = {s.name: s for s in tracer.spans}
    op = by_name["op.crc"]
    frame = by_name["device.sector.encode_frame"]
    assert frame.parent == op.sid
    assert by_name["crypto.crc.crc32"].parent == frame.sid
    assert by_name["device.ecc.encode"].parent == frame.sid
    assert {s.rid for s in tracer.spans} == {op.sid}


def test_adopting_span_links_across_threads():
    tracer = Tracer(publish={"crypto.crc.crc32": lambda a, k: "key"},
                    adopt={"crypto.crc.crc16_ccitt": lambda a, k: "key"})
    tracer.install(import_all())
    done = threading.Event()

    def server():
        crc.crc16_ccitt(b"abc")
        done.set()

    try:
        with tracer.op("client"):
            crc.crc32(b"abc")
            thread = threading.Thread(target=server)
            thread.start()
            thread.join(timeout=10)
    finally:
        tracer.uninstall()
    assert done.is_set()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["crypto.crc.crc16_ccitt"].parent == \
        by_name["crypto.crc.crc32"].sid
    assert by_name["crypto.crc.crc16_ccitt"].rid == by_name["op.client"].sid
