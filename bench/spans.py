"""In-memory span tracing around linsys's layer functions.

Each traced function is replaced at every module binding that refers to it
(``from .solvers import transversal_number`` copies the name into
``verify``, ``constructions`` and ``cli``, so patching the defining module
alone misses calls).  A span is ``[name, start_ns, end_ns, parent, op,
outcome]``; ``parent`` is the index of the enclosing span or -1, ``op`` the
index of the benchmark op that caused it.  Spans are kept in memory and
written out once the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time

# layer -> [(module, attribute, outcome)].  ``outcome`` maps a call's result
# to an int stored on the span, or is None; a call that raises stores -1.  Several
# entry points may feed one layer; a span nested in a span of its own layer
# is not counted again.
LAYERS = {
    "solvers.tau": [("linsys.solvers", "transversal_number", None)],
    "solvers.nu2": [("linsys.solvers", "two_packing_number", None)],
    "solvers.hypergraph": [
        ("linsys.core", "three_hypergraph", None),
        ("linsys.solvers", "clique_number_3h", None),
        ("linsys.solvers", "chromatic_number_3h", None),
    ],
    "core.canonical": [
        ("linsys.core", "canonical_form", None),
        ("linsys.core", "canonical_relabel", None),
        ("linsys.core", "is_isomorphic", None),
        ("linsys.core", "_canonical_key", None),
        ("linsys.core", "_canonical_search", None),
    ],
    "core.embed": [
        ("linsys.core", "embeds_as_subsystem", lambda r: int(r is not None)),
    ],
    "core.build": [("linsys.core", "new_linear_system", None)],
    "planarity.verdict": [
        ("linsys.planarity", "zykov_planar", lambda r: int(not r.planar)),
        ("linsys.planarity", "is_planar", lambda r: int(not r.planar)),
    ],
    "planarity.witness": [("linsys.planarity", "_kuratowski_witness", None)],
    "planarity.nx": [("networkx", "check_planarity", None)],
    "constructions.random": [
        ("linsys.constructions", "random_linear_system", None),
    ],
    "constructions.c44": [("linsys.constructions", "enumerate_c44", None)],
    "constructions.c44_oracle": [
        ("linsys.constructions", "enumerate_c44_exhaustive", None),
    ],
    "verify.exhaustive": [("linsys.verify", "exhaustive_small", len)],
    "verify.run_all": [("linsys.verify", "run_all", None)],
    "verify.instance": [("linsys.verify", "Instance", None)],
    "files.load": [("linsys.files", "load_instance", None)],
}


class Tracer:
    """Collects spans while ``op`` is not None; wrappers pass calls straight
    through otherwise."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn, outcome):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            rec = [name_id, clock(), 0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[2] = clock()
                stack.pop()
                rec[5] = -1
                raise
            rec[2] = clock()
            stack.pop()
            if outcome is not None:
                rec[5] = outcome(result)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of every layer function in the loaded
        linsys modules (and ``networkx.check_planarity``)."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "linsys" or n.startswith("linsys."))
        ]
        for layer, entries in LAYERS.items():
            for modname, attr, outcome in entries:
                home = sys.modules.get(modname)
                fn = getattr(home, attr, None) if home is not None else None
                if fn is None:
                    self.missing.append(f"{modname}.{attr}")
                    continue
                self.names.append(f"{layer}:{attr}")
                if isinstance(fn, type):
                    # a class: count constructions by wrapping __init__
                    init = fn.__init__
                    fn.__init__ = self._wrap(len(self.names) - 1, init, outcome)
                    self._restore.append((fn, "__init__", init))
                    continue
                traced = self._wrap(len(self.names) - 1, fn, outcome)
                targets = modules if modname.startswith("linsys") else [home]
                for mod in targets:
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            setattr(mod, key, traced)
                            self._restore.append((mod, key, fn))

    def uninstall(self) -> None:
        for obj, key, val in reversed(self._restore):
            setattr(obj, key, val)
        self._restore.clear()

    def write(self, path) -> None:
        doc = {
            "fields": ["name", "start_ns", "end_ns", "parent", "op", "outcome"],
            "names": self.names,
            "spans": self.spans,
        }
        with gzip.open(path, "wt", encoding="ascii") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def layer_metrics(tracer: Tracer, wall_s: float) -> tuple[dict, dict]:
    """Layer numbers of the traced pass from its spans, plus a share table.

    A layer's ``busy`` time sums its outermost spans; its ``self`` time is
    span time not covered by child spans of any layer.  ``covered`` time is
    spent inside any layer other than ``verify.run_all``, which wraps the
    whole of a ``verify-random`` op.  ``wall_s`` is the time of all op runs
    in the traced pass, which the shares are taken against.
    """
    layer_of = [n.split(":", 1)[0] for n in tracer.names]
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_ns[rec[3]] += rec[2] - rec[1]
    stats = {
        layer: {"calls": 0, "all_calls": 0, "busy_ns": 0, "self_ns": 0,
                "outcome": 0, "errors": 0}
        for layer in LAYERS
    }
    covered_ns = 0
    # enclosing[i]: the layers of the spans enclosing span i
    enclosing: list[frozenset] = []
    interned: dict[tuple, frozenset] = {}
    for i, rec in enumerate(spans):
        layer = layer_of[rec[0]]
        parent = rec[3]
        if parent < 0:
            outer = frozenset()
        else:
            key = (enclosing[parent], layer_of[spans[parent][0]])
            outer = interned.get(key)
            if outer is None:
                outer = interned[key] = key[0] | {key[1]}
        enclosing.append(outer)
        st = stats[layer]
        dur = rec[2] - rec[1]
        st["all_calls"] += 1
        st["self_ns"] += dur - child_ns[i]
        if layer not in outer:
            st["calls"] += 1
            st["busy_ns"] += dur
            if rec[5] < 0:
                st["errors"] += 1
            else:
                st["outcome"] += rec[5]
        if layer != "verify.run_all" and not outer - {"verify.run_all"}:
            covered_ns += dur

    def seconds(ns: int) -> float:
        return ns / 1e9

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    s = stats
    m = {}
    for layer in ("solvers.tau", "solvers.nu2", "solvers.hypergraph",
                  "core.canonical", "core.embed", "core.build",
                  "constructions.random", "files.load"):
        m[f"{layer}.calls"] = s[layer]["calls"]
        m[f"{layer}.busy_s"] = seconds(s[layer]["busy_ns"])
    m["core.embed.found_ratio"] = ratio(s["core.embed"]["outcome"], s["core.embed"]["calls"])
    verdicts, witness = s["planarity.verdict"], s["planarity.witness"]
    m["planarity.verdicts"] = verdicts["calls"]
    m["planarity.nonplanar_ratio"] = ratio(verdicts["outcome"], verdicts["calls"])
    m["planarity.nx_calls"] = s["planarity.nx"]["all_calls"]
    m["planarity.decide_s"] = seconds(verdicts["busy_ns"] - witness["busy_ns"])
    m["planarity.witness_s"] = seconds(witness["busy_ns"])
    m["constructions.random.exhausted"] = s["constructions.random"]["errors"]
    m["constructions.c44.busy_s"] = seconds(s["constructions.c44"]["busy_ns"])
    m["constructions.c44_oracle.busy_s"] = seconds(s["constructions.c44_oracle"]["busy_ns"])
    m["verify.exhaustive.busy_s"] = seconds(s["verify.exhaustive"]["busy_ns"])
    m["verify.exhaustive.classes"] = s["verify.exhaustive"]["outcome"]
    m["verify.run_all.self_s"] = seconds(s["verify.run_all"]["self_ns"])
    m["verify.instances"] = s["verify.instance"]["calls"]
    m["trace.spans"] = len(spans)
    m["trace.covered_frac"] = ratio(seconds(covered_ns), wall_s)

    shares = {
        layer: {
            "calls_per_pass": st["calls"],
            "busy_share": round(ratio(seconds(st["busy_ns"]), wall_s), 4),
            "self_share": round(ratio(seconds(st["self_ns"]), wall_s), 4),
        }
        for layer, st in stats.items()
        if st["all_calls"]
    }
    return m, shares


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"
