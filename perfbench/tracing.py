"""Spans around fbsec's public functions, installed from outside the package.

``Tracer.install`` replaces each target function by a wrapper at every
place a loaded ``fbsec`` module binds it (``from x import f`` makes a
second binding), and ``uninstall`` puts the originals back.  A target that
no longer exists is reported as absent instead of failing the run.

A span records name, start, end, parent span and work size.  Time per
function is the calling thread's CPU time: the CLI's sweep runs rows on a
thread pool, and a thread waiting for the interpreter lock is not busy in
the function it waits in.  A call counts
toward its function's ``calls`` and ``ms`` only when it enters the module
from outside (``spsc_numeric`` calling ``sopl_numeric`` is not a second
entry), so each module's figures are the time callers spent in it.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from array import array
from time import thread_time
from dataclasses import dataclass


def _kernel_work(args, kwargs):
    ts = kwargs.get("ts", args[0] if args else ())
    base = kwargs.get("base", args[1] if len(args) > 1 else ())
    abscissae = int(getattr(ts, "size", 1))
    return abscissae * len(base), abscissae


def _sample_work(args, kwargs):
    size = kwargs.get("size", args[3] if len(args) > 3 else None)
    n = 1 if size is None else int(size)
    return n, n


@dataclass(frozen=True)
class Target:
    layer: str          # metric prefix
    module: str
    func: str
    work: object = None  # (args, kwargs) -> (work size, items)

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.func}"


TARGETS = (
    Target("kernels", "fbsec._kernels", "talbot_sum", _kernel_work),
    Target("inversion", "fbsec.inversion", "asc_numeric"),
    Target("inversion", "fbsec.inversion", "sop_numeric"),
    Target("inversion", "fbsec.inversion", "sopl_numeric"),
    Target("inversion", "fbsec.inversion", "spsc_numeric"),
    Target("params", "fbsec.params", "derive"),
    Target("casetwo", "fbsec.casetwo", "link_expansion"),
    Target("casetwo", "fbsec.casetwo", "asc_case2"),
    Target("casetwo", "fbsec.casetwo", "sop_case2"),
    Target("casetwo", "fbsec.casetwo", "sopl_case2"),
    Target("casetwo", "fbsec.casetwo", "spsc_case2"),
    Target("special", "fbsec.special", "ln1p_moment_table"),
    Target("montecarlo", "fbsec.montecarlo", "estimate_asc"),
    Target("montecarlo", "fbsec.montecarlo", "estimate_sop"),
    Target("montecarlo", "fbsec.montecarlo", "estimate_sopl"),
    Target("montecarlo", "fbsec.montecarlo", "estimate_spsc"),
    Target("montecarlo", "fbsec.montecarlo", "sample_snr", _sample_work),
)

ROOT = -1  # function index of the CLI call span


@dataclass
class Totals:
    entry_calls: int = 0
    entry_s: float = 0.0    # busy (thread CPU) time; wall time would count GIL waits
    entry_errors: int = 0
    calls: int = 0          # every call, nested ones too
    work: int = 0
    items: int = 0

    def add(self, other: "Totals") -> None:
        for name in vars(self):
            setattr(self, name, getattr(self, name) + getattr(other, name))


SPAN_COLUMNS = ("id", "name", "parent", "start_s", "end_s", "work", "ok")


class _ThreadState:
    """What one thread records; only that thread writes to it."""

    def __init__(self, n_targets: int):
        self.stack: list[tuple[int, int]] = []
        self.totals = [Totals() for _ in range(n_targets)]
        self.spans = array("d")     # SPAN_COLUMNS flattened, name as target index


def _union_length(intervals) -> float:
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


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = list(targets)
        self.absent: list[str] = []
        self.keep_spans = True
        self.self_s = 0.0       # root time not covered by any library span
        self._patches: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._states: list[_ThreadState] = []   # list.append is atomic
        self._root_sid = None
        self._top: list[tuple[float, float]] = []
        self._root_spans = array("d")

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "fbsec" or n.startswith("fbsec."))]
        for idx, tgt in enumerate(self.targets):
            orig = getattr(sys.modules.get(tgt.module), tgt.func, None)
            if not callable(orig):
                self.absent.append(tgt.name)
                continue
            wrapper = self._wrap(idx, orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    # -- spans -------------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState(len(self.targets))
            self._states.append(st)
        return st

    def _wrap(self, idx: int, orig):
        tgt = self.targets[idx]
        work_of = tgt.work
        module = tgt.module
        targets = self.targets
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            # a pool thread of the CLI starts with an empty stack: its
            # caller is the CLI call that owns the pool
            parent_sid, parent_idx = stack[-1] if stack else (tracer._root_sid, ROOT)
            work, items = work_of(args, kwargs) if work_of else (0, 0)
            sid = next(tracer._ids)
            stack.append((sid, idx))
            ok = 0
            t0 = time.perf_counter()
            c0 = thread_time()
            try:
                out = orig(*args, **kwargs)
                ok = 1
                return out
            finally:
                c1 = thread_time()
                t1 = time.perf_counter()
                stack.pop()
                tot = st.totals[idx]
                tot.calls += 1
                tot.work += work
                tot.items += items
                if parent_idx == ROOT or targets[parent_idx].module != module:
                    tot.entry_calls += 1
                    tot.entry_s += c1 - c0
                    tot.entry_errors += 1 - ok
                if parent_idx == ROOT:
                    tracer._top.append((t0, t1))
                if tracer.keep_spans:
                    st.spans.extend((sid, idx, -1 if parent_sid is None else parent_sid,
                                     t0, t1, work, ok))

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", tgt.func)
        return wrapper

    def root(self, fn, *args):
        """Run ``fn(*args)`` as the root span of one CLI call."""
        sid = next(self._ids)
        self._root_sid = sid
        self._top = []
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            self._root_sid = None
            self.self_s += (t1 - t0) - _union_length(self._top)
            if self.keep_spans:
                self._root_spans.extend((sid, ROOT, -1, t0, t1, 0, 1))

    # -- output ------------------------------------------------------------

    @property
    def totals(self) -> list[Totals]:
        """Per-target totals summed over every thread that called a target."""
        out = [Totals() for _ in self.targets]
        for st in self._states:
            for acc, tot in zip(out, st.totals):
                acc.add(tot)
        return out

    def span_rows(self):
        """Spans as ``SPAN_COLUMNS`` rows, ordered by id."""
        names = [t.name for t in self.targets]
        width = len(SPAN_COLUMNS)
        rows = []
        for flat in [self._root_spans, *(st.spans for st in self._states)]:
            for i in range(0, len(flat), width):
                sid, f, parent, t0, t1, work, ok = flat[i:i + width]
                rows.append((int(sid), "cli.main" if f == ROOT else names[int(f)], int(parent),
                             t0, t1, int(work), int(ok)))
        rows.sort()
        return rows
