"""Spans and counters around calls into qcrb_lab, recorded from outside.

``Tracer.install`` wraps every public function of the six library
modules in every ``qcrb_lab`` namespace that binds it, so a call made as
``qfi.make_source`` or ``validate.lambda_lossy`` is caught as well as
``gaussian.make_source``.  The library is not edited; ``uninstall``
puts the original functions back, so untraced passes run unwrapped.

A span is recorded only inside a root span that the benchmark opens
around one timed operation (``Tracer.root``); library calls the
benchmark makes while checking results are not counted.  Spans live in
memory and are written out by the caller when the run ends.
"""

import inspect
import itertools
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

LIBRARY_MODULES = ("gaussian", "qfi", "fock", "measurement", "validate", "cli")
COMPLEX_BYTES = 16


@dataclass(frozen=True, slots=True)
class Span:
    run: str
    id: int
    parent: int  # 0 for a root span
    name: str
    tag: str | None
    start: float
    end: float


class Tracer:
    def __init__(self, package):
        self._package = package
        self._modules = [package] + [
            getattr(package, name) for name in LIBRARY_MODULES
        ]
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched = []
        self._wrappers = {}
        self.run_id = ""
        self.spans = []
        self.counters = defaultdict(float)

    # -- installation -------------------------------------------------
    def install(self):
        homes = {f"{self._package.__name__}.{m}": m for m in LIBRARY_MODULES}
        for mod in self._modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = homes.get(obj.__module__)
                if home is None or obj.__name__.startswith("_"):
                    continue
                if obj not in self._wrappers:
                    self._wrappers[obj] = self._wrap(obj, f"{home}.{obj.__name__}")
                setattr(mod, attr, self._wrappers[obj])
                self._patched.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    # -- spans ----------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def root(self, name):
        """Open the root span of one timed benchmark operation."""
        stack = self._stack()
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(self.run_id, sid, stack[-1] if stack else 0, name, None, start, end))

    def _wrap(self, fn, name):
        post = _POST_HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if not stack:
                return fn(*args, **kwargs)
            tag = None
            sid = next(tracer._ids)
            parent = stack[-1]
            stack.append(sid)
            done = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                end = time.perf_counter()
                stack.pop()
                if done and post:
                    tag = post(tracer, args, kwargs, result)
                tracer.spans.append(Span(tracer.run_id, sid, parent, name, tag, start, end))
            return result

        traced.__qualname__ = name
        traced.__wrapped__ = fn
        return traced

    # -- computed sizes -------------------------------------------------
    def count_rho(self, n_max, modes):
        """Computed size of one dense density matrix (not a measured allocation).

        Counted where fock returns one; oracle_qfi's matrices come from the
        channel_density calls it makes.
        """
        dim = (n_max + 1) ** modes
        nbytes = dim * dim * COMPLEX_BYTES
        c = self.counters
        c["fock.n_max"] = max(c["fock.n_max"], n_max)
        c["fock.rho_dim"] = max(c["fock.rho_dim"], dim)
        c["fock.rho_bytes"] = max(c["fock.rho_bytes"], nbytes)
        c["fock.rho_bytes_sum"] += nbytes
        c["fock.rho_calls"] += 1


def _post_qfi_gaussian(tracer, args, kwargs, result):
    bright = kwargs.get("bright_limit", args[2] if len(args) > 2 else False)
    return "bright" if bright else "full"


def _post_density(tracer, args, kwargs, result):
    tracer.count_rho(result.n_max, result.modes)
    return f"modes{result.modes}_n{result.n_max}"


def _post_write_records(tracer, args, kwargs, result):
    records = args[0] if args else kwargs["records"]
    out = args[2] if len(args) > 2 else kwargs.get("out")
    tracer.counters["cli.rows_out"] += len(records)
    if out is not None:
        tracer.counters["cli.bytes_out"] += os.path.getsize(out)


def _post_mc_estimate(tracer, args, kwargs, result):
    tracer.counters["measurement.trials"] += result.trials
    spec, cfg = args[0], args[3] if len(args) > 3 else kwargs["cfg"]
    return f"{cfg.sampler.value}/{spec.kind.value}"


# Run after a traced call returns; each may count sizes and returns the span's tag.
_POST_HOOKS = {
    "qfi.qfi_gaussian": _post_qfi_gaussian,
    "fock.channel_density": _post_density,
    "fock.lossy_density": _post_density,
    "fock.apply_loss_density": _post_density,
    "cli.write_records": _post_write_records,
    "measurement.mc_estimate": _post_mc_estimate,
}


def aggregate(spans):
    """Calls, inclusive and self seconds per span name, and per (name, tag).

    Self time is a span's duration minus the part its children cover.
    """
    child = defaultdict(float)
    for s in spans:
        if s.parent:
            child[s.parent] += s.end - s.start
    by_name = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
    by_tag = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
    for s in spans:
        dur = s.end - s.start
        rows = [by_name[s.name]]
        if s.tag is not None:
            rows.append(by_tag[f"{s.name}[{s.tag}]"])
        for row in rows:
            row["calls"] += 1
            row["incl_s"] += dur
            row["self_s"] += dur - child[s.id]
    return dict(by_name), dict(by_tag)
