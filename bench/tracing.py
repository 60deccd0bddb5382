"""Span tracing from outside the library.

Every public function of every ``trigsplines`` module is replaced, at each
place that holds a reference to it (the defining module, the modules that
imported it by name, the package namespace and module-level dispatch
tables), by a wrapper that records a span: name, start, end and parent.
Nothing inside ``src/`` is changed.  Spans are kept in flat in-memory
arrays while the workload runs and are reduced to per-layer figures when
it ends; self time is a span's duration minus the durations of its child
spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np


def _alias_sum_terms(args, result):
    t = args.get("t")
    width = 1 if args.get("trig") is None else int(np.size(t))
    return 2 * int(args["m_count"]) * width


def _truncation_key(args):
    return (args["family"], args["n_nodes"], args["k"], args["policy"])


def _factor_sums_key(args):
    return (args["family"], args["signs"], args["i1"], args["i2"], args["n_nodes"], args["policy"])


def _capped(args, result):
    policy = args["policy"]
    return int(policy.fixed_m is None and result == policy.m_max)


def _r1(args, result):
    return int(args["family"].r == 1)


# span name -> {counter suffix: f(bound arguments, result) -> number}
_COUNTERS = {
    "basis.alias_sum": {"terms": _alias_sum_terms},
    "basis.truncation_order": {
        "capped": _capped,
        "r1": _r1,
        "capped_r1": lambda a, r: _r1(a, r) * _capped(a, r),
    },
    "factors.factor_values": {"elements": lambda a, r: int(np.size(a["indices"]))},
    "spline.evaluate": {"points": lambda a, r: int(np.size(a["t"]))},
    "spline.sample": {"points": lambda a, r: int(a["count"])},
}

# span name -> argument key whose repeats within one pass are counted
_REPEAT_KEYS = {
    "basis.truncation_order": _truncation_key,
    "interp_factors.factor_sums": _factor_sums_key,
}


class Tracer:
    """Records spans while ``active``; per-pass argument repeats are counted
    between calls to :meth:`begin_pass`."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.active = False
        self.counts: dict[str, float] = {}
        self._seen: dict[str, set] = {}

    def begin_pass(self) -> None:
        self._seen.clear()

    def _add(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn):
        sid = self._name_ids.setdefault(name, len(self.names))
        if sid == len(self.names):
            self.names.append(name)
        counters = _COUNTERS.get(name, {})
        repeat_key = _REPEAT_KEYS.get(name)
        sig = inspect.signature(fn) if (counters or repeat_key) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(sid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
                for suffix, count in counters.items():
                    self._add(f"{name}.{suffix}", count(arguments, result))
                if repeat_key is not None:
                    seen = self._seen.setdefault(name, set())
                    key = repeat_key(arguments)
                    self._add(f"{name}.repeats", int(key in seen))
                    seen.add(key)
            return result

        return wrapper

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls`` and ``self_s``."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        width = len(self.names)
        calls = np.bincount(ids, minlength=width)
        self_s = np.bincount(ids, weights=dur - child, minlength=width)
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }


def instrument(tracer: Tracer, package, modules: dict[str, object]) -> None:
    """Wrap the public functions of ``modules`` (short name -> module) at every
    import site inside the package."""
    wrappers = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                wrappers[obj] = tracer.wrap(f"{short}.{attr}", obj)
    for holder in [package, *modules.values()]:
        for attr, obj in list(vars(holder).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(holder, attr, wrappers[obj])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if inspect.isfunction(value) and value in wrappers:
                        obj[key] = wrappers[value]
