"""Spans around hallkit's layers, recorded from outside the program.

``install`` replaces each traced function under every name a caller
looks it up by (module attributes across the ``hallkit`` package, or
the class attribute for a method) with a wrapper that records a span:
name, op, start, end and parent.  Spans stay in memory; ``Tracer.layers``
turns them into call counts and self-time shares at the end of the
pass, and ``Tracer.write`` saves them.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter

from hallkit import embeddings, hall, oracle, qforms, s2cat, tableaux


def _aut_arg(tracer, args, result):
    tracer.aut_args.add(args[0])


def _klein_out(tracer, args, result):
    tracer.counts["tableaux.klein_tableaux_out"] += len(result)


def _enum_beta(tracer, args, result):
    tracer.enum_betas.add((args[0], tuple(args[1])))


def _hom_maps(tracer, args, result):
    E, F = args[0], args[1]
    tracer.counts["oracle.maps_enumerated"] += F.p ** sum(
        min(b, c) for b in E.beta for c in F.beta
    )


def _ambient_elements(tracer, args, result):
    E = args[0]
    tracer.counts["embeddings.truncate.ambient_elements"] += E.p ** sum(E.beta)


# (metric prefix, owner, attribute, hook run after each call or on first resume)
LAYERS = (
    ("hall.hall_polynomial", hall, "hall_polynomial", None),
    ("hall.hall_multiplicity", hall, "hall_multiplicity", None),
    ("tableaux.enumerate_klein", tableaux, "enumerate_klein", _klein_out),
    ("tableaux.restrict", tableaux, "restrict", None),
    ("s2cat.object_of_tableau", s2cat, "object_of_tableau", None),
    ("s2cat.aut_order", s2cat, "aut_order", _aut_arg),
    ("qforms.expand", qforms.QOrderFactored, "expand", None),
    ("oracle.enumerate_subgroups", oracle, "enumerate_subgroups", _enum_beta),
    ("oracle.hom_count", oracle, "hom_count", _hom_maps),
    ("embeddings.module_type", embeddings, "module_type", None),
    ("embeddings.quotient_type", embeddings, "quotient_type", None),
    ("embeddings.klein_tableau", embeddings, "klein_tableau", None),
    ("embeddings.truncate", embeddings, "truncate", _ambient_elements),
    ("embeddings.subfactor", embeddings, "subfactor", None),
    ("embeddings.reduce", embeddings, "reduce", None),
    ("embeddings.lift", embeddings, "lift", None),
)

COUNTS = (
    "tableaux.klein_tableaux_out",
    "oracle.subgroups_yielded",
    "oracle.maps_enumerated",
    "embeddings.truncate.ambient_elements",
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, op, start, end, parent index)
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.aut_args: set = set()
        self.enum_betas: set = set()
        self.op = -1
        self.missing: list[str] = []

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self.stack.pop()
        self.spans[idx] = (name, self.op, start, end, self.stack[-1] if self.stack else -1)

    def wrap(self, name, fn, hook):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # A span per resume: the consumer's work between items is not ours.
            def traced_gen(*args, **kwargs):
                tracer.calls[name] += 1
                if hook:
                    hook(tracer, args, None)
                gen = fn(*args, **kwargs)
                while True:
                    idx = tracer._open()
                    start = time.perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx, name, start)
                    tracer.counts["oracle.subgroups_yielded"] += 1
                    yield item

            return traced_gen

        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            idx = tracer._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, name, start)
            if hook:
                hook(tracer, args, result)
            return result

        return traced

    def install(self) -> None:
        for name, owner, attr, hook in LAYERS:
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            traced = self.wrap(name, original, hook)
            if isinstance(owner, type):
                setattr(owner, attr, traced)
                continue
            for modname, module in list(sys.modules.items()):
                if modname == "hallkit" or modname.startswith("hallkit."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, traced)

    def layers(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the pass.  Self time is reported as a share
        of the pass's timed wall time: both are measured at the same
        moments, so the share does not follow the machine's speed, and a
        layer idle on a workload reads 0 without being a constant time.
        ``bench.self_share`` is the part that no traced span covers."""
        child = [0.0] * len(self.spans)
        for name, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        for idx, (name, _, start, end, _) in enumerate(self.spans):
            self_s[name] += end - start - child[idx]
        out: dict[str, float] = {}
        for name, *_ in LAYERS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_share"] = self_s[name] / wall_s
        for name in COUNTS:
            out[name] = self.counts[name]
        calls = self.calls["s2cat.aut_order"]
        out["s2cat.aut_order.distinct_ratio"] = len(self.aut_args) / calls if calls else 0.0
        enums = self.calls["oracle.enumerate_subgroups"]
        out["oracle.enumerations_per_beta"] = enums / len(self.enum_betas) if enums else 0.0
        out["bench.self_share"] = 1 - sum(self_s.values()) / wall_s
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id\tparent\top\tname\tstart_s\tend_s\n")
            for idx, (name, op, start, end, parent) in enumerate(self.spans):
                fh.write(f"{idx}\t{parent}\t{op}\t{name}\t{start:.9f}\t{end:.9f}\n")
