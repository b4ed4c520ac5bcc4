"""Spans around the public functions of every psforge module, recorded
from the benchmark's side without touching psforge's source.

Every public function defined in a psforge module is replaced, in each
module namespace that binds it (including the package namespace), by one
wrapper that records a span: name, start, end, parent and thread. Calls
between psforge modules go through module globals, so they are caught
too. Spans stay in memory until the run writes them out.
"""

import contextlib
import inspect
import threading
import time
from dataclasses import dataclass, field

import psforge

MODULES = ("algebra", "numerics", "sinegordon", "frames", "surfaces",
           "loops", "potentials", "cli")


@dataclass
class Span:
    id: int
    name: str
    parent: int
    thread: int
    start: float
    end: float = None

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


@dataclass
class Tracer:
    """Collects spans; `install` wraps psforge, `uninstall` restores it.

    A span opened on a thread with no open span of its own (a worker of
    psforge's per-lambda pool) takes as parent the innermost open span of
    the thread that installed the tracer, which is the call waiting on
    the pool. `hooks` maps a span name to a function of (span, result)
    that runs after the span has closed, inside a "bench.hook" span, so
    its cost is not charged to any psforge layer.
    """

    hooks: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    _saved: list = field(default_factory=list)
    _stacks: dict = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _home: int = None

    def _open(self, name):
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1].id
        else:
            home = self._stacks.get(self._home)
            parent = home[-1].id if home and tid != self._home else None
        with self._lock:
            span = Span(len(self.spans), name, parent, tid, 0.0)
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stacks[span.thread].pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name):
        hook = self.hooks.get(name)

        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                with self.span("bench.hook"):
                    hook(span, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self):
        self._home = threading.get_ident()
        namespaces = [psforge] + [getattr(psforge, m) for m in MODULES]
        wrappers = {}
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                module = value.__module__ or ""
                if not module.startswith("psforge."):
                    continue
                if value not in wrappers:
                    name = f"{module.split('.', 1)[1]}.{value.__name__}"
                    wrappers[value] = self._wrap(value, name)
                self._saved.append((ns, attr, value))
                setattr(ns, attr, wrappers[value])

    def uninstall(self):
        for ns, attr, value in reversed(self._saved):
            setattr(ns, attr, value)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False



def to_json(spans):
    return [{"id": s.id, "name": s.name, "parent": s.parent,
             "thread": s.thread, "start": s.start, "end": s.end}
            for s in spans]


def _union_length(intervals):
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def children(spans):
    kids = {s.id: [] for s in spans}
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)
    return kids


def self_times(spans):
    """Span id -> duration minus the part of it covered by child spans."""
    kids = children(spans)
    out = {}
    for s in spans:
        covered = _union_length([(max(c.start, s.start), min(c.end, s.end))
                                 for c in kids[s.id]
                                 if c.end > s.start and c.start < s.end])
        out[s.id] = s.duration - covered
    return out


def child_overlap(spans):
    """Total time by which sibling spans overlap one another (nonzero only
    where psforge's pool runs members concurrently)."""
    kids = children(spans)
    extra = 0.0
    for s in spans:
        cs = kids[s.id]
        if len(cs) > 1:
            extra += sum(c.duration for c in cs) - _union_length(
                [(c.start, c.end) for c in cs])
    return extra


def outermost(spans, names):
    """Spans named in `names` with no ancestor also named in `names`, so a
    recursive call (birkhoff_split's plus-first branch) counts once."""
    names = set(names)
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and by_id[p].name not in names:
            p = by_id[p].parent
        if p is None:
            out.append(s)
    return out
