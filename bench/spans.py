"""Tracing rimtori from outside: timing wrappers, spans and per-layer counters.

Library modules bind their imports by name (``from .matrices import
hermite_form`` in ``groups``), so a wrapper only sees every call when it
replaces the function at each module binding that holds it, not just at
its home module.  ``Tracer.install`` does that for the public functions of
every layer, and for the public methods (plus ``__eq__`` and
``__post_init__``) of the classes each layer defines.  ``IntMatrix``
methods are not wrapped: they are called per entry, so their time counts
towards the layer that calls them.  ``Tracer.remove`` puts every original
back.

A span is (name, parent, start, end, covered_end).  ``covered_end`` also
takes in the counter bookkeeping done after the call returns, so that
bookkeeping is charged to neither the span nor its parent.  Self time is
the span's duration minus what its children cover.
"""

from __future__ import annotations

import argparse
import inspect
import time
from collections import Counter

LAYERS = ("matrices", "groups", "divisors", "squares", "covers", "scenario", "cli")
SKIPPED_CLASSES = {"IntMatrix"}
WRAPPED_DUNDERS = {"__eq__", "__post_init__"}
MATRIX_FUNCTIONS = {"smith_normal_form", "hermite_form", "solve_integral", "integer_kernel"}

# Per-layer metrics: name -> (spans counted as calls, spans whose self time is summed).
# An empty first entry means the metric reports self time only.
SPAN_GROUPS = {
    "matrices.smith_normal_form": (["matrices.smith_normal_form"],) * 2,
    "matrices.hermite_form": (["matrices.hermite_form"],) * 2,
    "matrices.solve_integral": (["matrices.solve_integral"],) * 2,
    "matrices.integer_kernel": (["matrices.integer_kernel"],) * 2,
    "groups.eq": (["groups.FgAbGroup.__eq__", "groups.Subgroup.__eq__"],) * 2,
    "groups.canonical_form": (["groups.FgAbGroup.canonical_form"],) * 2,
    "groups.homomorphism_init": (["groups.Homomorphism.__post_init__"],) * 2,
    "divisors.deck_action": (["divisors.deck_action"],) * 2,
    "squares.verify": (["squares.verify"],) * 2,
    "squares.construct": ([], ["squares.ExactSquare.__post_init__"]),
    "scenario.load_scenario": (["scenario.load_scenario"],
                               ["scenario.load_scenario", "scenario.parse_scenario"]),
    "cli.parse_args": ([], ["cli.build_parser", "cli.parse_args"]),
    "cli.run": ([], ["cli.run"]),
    "cli.render": ([], ["cli.Report.to_machine", "cli.Report.to_text"]),
}


def _max_bits(obj) -> int:
    """Largest bit length of any integer in a matrix, decomposition or vector."""
    if obj is None or isinstance(obj, bool):
        return 0
    if isinstance(obj, int):
        return abs(obj).bit_length()
    entries = getattr(obj, "entries", None)
    if entries is not None:
        return max((abs(x).bit_length() for row in entries for x in row), default=0)
    if hasattr(obj, "u"):
        return max(_max_bits(obj.u), _max_bits(obj.d), _max_bits(obj.v))
    if isinstance(obj, (tuple, list)):
        return max((_max_bits(x) for x in obj), default=0)
    return 0


class Tracer:
    """Wraps the layers of one imported rimtori and records spans in memory."""

    def __init__(self, rimtori):
        self.modules = [rimtori] + [getattr(rimtori, name) for name in LAYERS]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active: Counter = Counter()
        self.max_entry_bits = 0
        self.max_dim = 0
        self.hnf_inputs: set = set()
        self.deck_solves = 0
        self.deck_solve_hits = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- installing and removing wrappers --------------------------------

    def install(self) -> None:
        replaced = {}
        for layer in LAYERS:
            module = getattr(self.modules[0], layer)
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj) and name not in SKIPPED_CLASSES:
                    self._wrap_methods(layer, obj)
        for module in self.modules:
            for name, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    self._set(module, name, replaced[id(obj)])
        self._set(argparse.ArgumentParser, "parse_args",
                  self._wrap("cli.parse_args", argparse.ArgumentParser.parse_args))

    def _wrap_methods(self, layer: str, cls) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in WRAPPED_DUNDERS:
                continue
            span = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                self._set(cls, name, staticmethod(self._wrap(span, attr.__func__)))
            elif inspect.isfunction(attr):
                self._set(cls, name, self._wrap(span, attr))

    def _set(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def remove(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        spans, stack, active = self.spans, self.stack, self.active
        observe = self._observer(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            active[name] += 1
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = span[4] = clock()
                active[name] -= 1
                stack.pop()
            if observe is not None:
                observe(args, result)
            span[4] = clock()
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    # -- counters recorded at the layer boundaries -----------------------

    def _observer(self, name: str):
        layer, _, func = name.partition(".")
        if layer != "matrices" or func not in MATRIX_FUNCTIONS:
            return None

        def observe(args, result):
            a = args[0]
            self.max_dim = max(self.max_dim, a.rows, a.cols)
            self.max_entry_bits = max(self.max_entry_bits, _max_bits(a), _max_bits(result))
            if func == "hermite_form":
                self.hnf_inputs.add(a)
            elif func == "solve_integral" and self.active["divisors.deck_action"]:
                self.deck_solves += 1
                self.deck_solve_hits += result is not None

        return observe

    # -- results ----------------------------------------------------------

    def self_times(self) -> list[int]:
        """Self time of each span, in nanoseconds."""
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                own[s[1]] -= s[4] - s[2]
        return own

    def counters(self) -> dict:
        """The counters that must repeat exactly for the same inputs."""
        calls = Counter(s[0] for s in self.spans)
        hnf_calls = calls["matrices.hermite_form"]
        return {
            "calls": dict(sorted(calls.items())),
            "matrices.max_entry_bits": self.max_entry_bits,
            "matrices.max_dim": self.max_dim,
            "groups.hnf_distinct_ratio": len(self.hnf_inputs) / hnf_calls if hnf_calls else 0.0,
            "divisors.deck_action.solve_hit_ratio":
                self.deck_solve_hits / self.deck_solves if self.deck_solves else 0.0,
        }

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name, as (value, unit)."""
        own = self.self_times()
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for s, t in zip(self.spans, own):
            calls[s[0]] += 1
            self_ns[s[0]] += t
        counters = self.counters()
        out: dict[str, tuple[float, str]] = {}
        for metric, (call_names, self_names) in SPAN_GROUPS.items():
            if call_names:
                out[f"{metric}.calls"] = (sum(calls[n] for n in call_names), "count")
            out[f"{metric}.self_s"] = (sum(self_ns[n] for n in self_names) / 1e9, "s")
        for layer in ("groups", "divisors", "covers"):
            out[f"{layer}.self_s"] = (sum(t for n, t in self_ns.items()
                                          if n.startswith(layer + ".")) / 1e9, "s")
        out["covers.calls"] = (sum(c for n, c in calls.items() if n.startswith("covers.")), "count")
        out["matrices.max_entry_bits"] = (counters["matrices.max_entry_bits"], "bits")
        out["matrices.max_dim"] = (counters["matrices.max_dim"], "count")
        out["groups.hnf_distinct_ratio"] = (counters["groups.hnf_distinct_ratio"], "ratio")
        out["divisors.deck_action.solve_hit_ratio"] = (
            counters["divisors.deck_action.solve_hit_ratio"], "ratio")
        return out

    def dump(self) -> dict:
        """Spans and counters in a JSON-ready form."""
        own = self.self_times()
        return {
            "fields": ["name", "parent", "start_ns", "end_ns", "self_ns"],
            "spans": [[s[0], s[1], s[2], s[3], t] for s, t in zip(self.spans, own)],
            "counters": self.counters(),
        }
