"""In-memory span tracer over the public callables of ``repro`` modules.

While installed, every public function of every ``repro`` module and
every public method of every class those modules define is replaced
by a wrapper that records one span per call::

    (span id, name, start ns, end ns, parent span id, request id, value)

``name`` is the callable's module path below ``repro`` plus its
qualified name (``device.ecc.decode``,
``api.fleet.FleetStore.audit``).  The parent is the span that was open
in the calling context when the call began; the current span lives in
a :class:`contextvars.ContextVar`, so fleet passes that run member
tasks under a copied context (the thread executor) keep their parent.
Spans of one benchmark op share its request id.

A callable bound by name in another module (``from ..crypto.crc
import crc32``) is patched where that module looks it up as well; a
lazy ``from .cleaner import run_cleaner`` reads the patched module
attribute at call time.  :meth:`Tracer.uninstall` puts every original
object back.
"""

from __future__ import annotations

import contextlib
import contextvars
import enum
import functools
import importlib
import itertools
import pkgutil
import sys
import time
import types
from collections import defaultdict
from typing import (Any, Callable, Dict, Iterable, List, NamedTuple,
                    Optional, Tuple)

ROOT_PACKAGE = "repro"
OP_PREFIX = "op."


class Span(NamedTuple):
    sid: int
    name: str
    start: int
    end: int
    parent: int
    rid: int
    value: Optional[int]

    @property
    def duration(self) -> int:
        return self.end - self.start


def import_all() -> List[types.ModuleType]:
    """Import every ``repro`` module (entry-point ``__main__`` modules
    excepted) and return them, the package included."""
    root = importlib.import_module(ROOT_PACKAGE)
    modules = [root]
    for info in pkgutil.walk_packages(root.__path__, ROOT_PACKAGE + "."):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue
        modules.append(importlib.import_module(info.name))
    return modules


def _is_public(attr: str) -> bool:
    return not attr.startswith("_")


class Tracer:
    """Patch, record, restore.

    Args:
        extra: ``module.Class.method`` names (below ``repro``) of
            private callables to wrap as well — boundaries the public
            surface does not expose, such as the lock-gate acquires
            behind ``MemberLockSet.shared()``.
        values: span name → ``f(args, kwargs, result) -> int``; the
            number lands in the span's ``value`` field (e.g. how many
            lines one ``verify_lines`` call verified).
        publish / adopt: span name → ``f(args, kwargs) -> key``.  A
            published call stores its span under the key; an adopting
            call started in a context with no open span takes that
            span as its parent.  This links a server thread's handler
            to the client call waiting on it.
    """

    def __init__(self, *,
                 extra: Iterable[str] = (),
                 values: Optional[Dict[str, Callable]] = None,
                 publish: Optional[Dict[str, Callable]] = None,
                 adopt: Optional[Dict[str, Callable]] = None) -> None:
        self.extra = frozenset(extra)
        self.values = dict(values or {})
        self.publish = dict(publish or {})
        self.adopt = dict(adopt or {})
        self.spans: List[Span] = []
        self.wrapped: Dict[str, Callable] = {}
        #: span name → defining module (below ``repro``)
        self.modules: Dict[str, str] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=(0, 0))
        self._links: Dict[Any, Tuple[int, int]] = {}

    # -- spans ----------------------------------------------------------------

    def _wrap(self, module: str, name: str, fn: Callable) -> Callable:
        self.modules[name] = module
        spans = self.spans
        current = self._current
        ids = self._ids
        clock = time.perf_counter_ns
        value_of = self.values.get(name)
        publish = self.publish.get(name)
        adopt = self.adopt.get(name)
        links = self._links

        if value_of is None and publish is None and adopt is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                sid = next(ids)
                parent, rid = current.get()
                token = current.set((sid, rid))
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    current.reset(token)
                    spans.append(Span(sid, name, start, end, parent, rid,
                                      None))
            return traced

        @functools.wraps(fn)
        def traced_hooked(*args, **kwargs):
            sid = next(ids)
            parent, rid = current.get()
            if adopt is not None and parent == 0:
                parent, rid = links.get(adopt(args, kwargs), (0, 0))
            if publish is not None:
                links[publish(args, kwargs)] = (sid, rid)
            token = current.set((sid, rid))
            value = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if value_of is not None:
                    value = int(value_of(args, kwargs, result))
                return result
            finally:
                end = clock()
                current.reset(token)
                spans.append(Span(sid, name, start, end, parent, rid,
                                  value))
        return traced_hooked

    @contextlib.contextmanager
    def op(self, kind: str):
        """Root span of one benchmark op: a fresh request id that every
        span the op causes inherits."""
        sid = next(self._ids)
        token = self._current.set((sid, sid))
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._current.reset(token)
            self.spans.append(Span(sid, OP_PREFIX + kind, start, end, 0,
                                   sid, None))

    # -- patching -------------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, prefix: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            name = f"{prefix}.{cls.__name__}.{attr}"
            if not (_is_public(attr) or name in self.extra):
                continue
            if isinstance(raw, types.FunctionType):
                wrapper = self._wrap(prefix, name, raw)
                self._set(cls, attr, wrapper)
            elif isinstance(raw, (staticmethod, classmethod)):
                wrapper = self._wrap(prefix, name, raw.__func__)
                self._set(cls, attr, type(raw)(wrapper))
            else:
                continue
            self.wrapped[name] = wrapper

    def install(self, modules: Iterable[types.ModuleType]) -> "Tracer":
        """Wrap every public callable of ``modules`` (see
        :func:`import_all`), then rebind by-name imports of them
        elsewhere."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        replaced: Dict[int, Tuple[Any, Any]] = {}
        for module in modules:
            prefix = module.__name__.partition(".")[2] or module.__name__
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # imported here, defined elsewhere
                if isinstance(obj, types.FunctionType):
                    name = f"{prefix}.{attr}"
                    if not (_is_public(attr) or name in self.extra):
                        continue
                    wrapper = self._wrap(prefix, name, obj)
                    self._set(module, attr, wrapper)
                    self.wrapped[name] = wrapper
                    replaced[id(obj)] = (obj, wrapper)
                elif isinstance(obj, type) and not issubclass(
                        obj, (BaseException, enum.Enum)):
                    self._wrap_class(prefix, obj)
        # by-name bindings: ``from .x import f`` copies the function
        # object into the importer's namespace
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith(
                    ROOT_PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(module, attr, hit[1])
        return self

    def uninstall(self) -> None:
        """Put every patched attribute back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patches(self) -> Tuple[Tuple[Any, str, Any], ...]:
        """``(owner, attribute, original)`` of every live patch."""
        return tuple(self._patches)


def _covered(intervals: List[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, int]:
    """Span id → self time (ns): duration minus the part of the
    span's interval that its child spans cover.  Children that overlap
    each other (parallel member tasks) are counted once."""
    spans = list(spans)
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[span.parent].append((span.start, span.end))
    return {span.sid: span.duration - _covered(children.get(span.sid, []),
                                               span.start, span.end)
            for span in spans}
