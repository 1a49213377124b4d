"""Outside-in tracing of omlprob's layers, from the benchmark's own code.

``Tracer.install`` rebinds the public functions listed in TRACED, in
the module that defines each one and in every omlprob module that
imported it by name (``omlprob.analysis.maximize``,
``omlprob.states.enumerate_vertices``, ...), to a wrapper that records
a span.  Nothing under src/ changes; the rebinding lives only in the
traced pass's interpreter.

A span is (id, parent id, query index, group, start, end, self time).
Self time is the span's duration minus the time its child spans cover.
Spans are kept in memory and written out when the pass ends.
"""

from __future__ import annotations

import importlib
import json
import time

MODULES = ("lattice", "states", "bimaps", "linear", "analysis", "cli")

# (module, function, metric group); several functions may share a group
TRACED = [
    ("linear", "maximize", "linear.maximize"),
    ("linear", "certify_implied", "linear.certify_implied"),
    ("linear", "with_premise", "linear.with_premise"),
    ("linear", "functional_on", "linear.functional_on"),
    ("linear", "propagate_unit_box", "linear.propagate_unit_box"),
    ("linear", "solve", "linear.solve"),
    ("linear", "enumerate_vertices", "linear.enumerate_vertices"),
    ("linear", "satisfies", "linear.satisfies"),
    ("lattice", "validate_oml", "lattice.validate_oml"),
    ("lattice", "blocks", "lattice.blocks"),
    ("bimaps", "check_map", "bimaps.check"),
    ("bimaps", "check_s_map", "bimaps.check"),
    ("bimaps", "check_j_map", "bimaps.check"),
    ("bimaps", "check_d_map", "bimaps.check"),
    ("bimaps", "check_g_map", "bimaps.check"),
    ("bimaps", "verify_lemma_komp", "bimaps.check"),
    ("bimaps", "verify_gamma9_identities", "bimaps.check"),
    ("bimaps", "semantic_check_on_compatible", "bimaps.check"),
    ("bimaps", "derive_j_from_s", "bimaps.derive"),
    ("bimaps", "derive_d_from_s", "bimaps.derive"),
    ("bimaps", "derive_pure_projection_from_s", "bimaps.derive"),
    ("bimaps", "induced_state_from_smap", "bimaps.derive"),
    ("bimaps", "smap_system", "bimaps.system"),
    ("bimaps", "jmap_system", "bimaps.system"),
    ("bimaps", "dmap_system", "bimaps.system"),
    ("bimaps", "gmap_system", "bimaps.system"),
    ("states", "state_system", "states.state_system"),
    ("states", "classify_states", "states.classify_states"),
    ("states", "state_vertices", "states.state_vertices"),
    ("analysis", "bell1_state", "analysis.bell1_state"),
    ("analysis", "bell1_smap", "analysis.bell1_smap"),
    ("analysis", "bell2_state", "analysis.bell2_state"),
    ("analysis", "bell2_smap", "analysis.bell2_smap"),
    ("analysis", "jauch_piron_state", "analysis.jauch_piron_state"),
    ("analysis", "jauch_piron_smap", "analysis.jauch_piron_smap"),
    ("analysis", "search_pseudometric_violation",
     "analysis.search_pseudometric_violation"),
    ("analysis", "is_pseudometric", "analysis.is_pseudometric"),
    ("cli", "main", "cli.main"),
]

GROUPS = list(dict.fromkeys(group for _m, _f, group in TRACED))

# entry points that run the simplex or vertex enumeration on a system
LP_GROUPS = ("linear.maximize", "linear.solve", "linear.enumerate_vertices")

# derived per-layer figures beside <group>.calls and <group>.self_s
DERIVED = {
    "linear.vars_per_lp": "count",
    "linear.lp_per_premise": "ratio",
    "linear.propagate_unit_box.pinned_frac": "ratio",
    "linear.enumerate_vertices.vertices": "count",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.query = -1
        self._stack = []  # [span id, start, child time] of open spans
        self._next_id = 0
        self.lp_vars = 0
        self.pinned = 0
        self.vertices = 0

    def install(self):
        """Rebind every function in TRACED wherever omlprob binds it."""
        mods = [importlib.import_module("omlprob." + m) for m in MODULES]
        by_module = dict(zip(MODULES, mods))
        wrappers = {}
        for mod_name, fn_name, group in TRACED:
            fn = getattr(by_module[mod_name], fn_name, None)
            if fn is not None:  # a later refactor may drop a function
                wrappers[id(fn)] = self.wrap(fn, group)
        for mod in mods:
            for name, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, name, wrappers[id(value)])

    def wrap(self, fn, group):
        observe = {"linear.propagate_unit_box": self._observe_propagate,
                   "linear.enumerate_vertices": self._observe_vertices,
                   }.get(group)
        is_lp = group in LP_GROUPS

        def traced(*args, **kwargs):
            self._next_id += 1
            span_id = self._next_id
            parent = self._stack[-1][0] if self._stack else 0
            frame = [span_id, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                dur = end - frame[1]
                if self._stack:
                    self._stack[-1][2] += dur
                self.spans.append((span_id, parent, self.query, group,
                                   frame[1], end, dur - frame[2]))
            if is_lp:
                self.lp_vars += len(args[0].vars)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observe_propagate(self, args, known):
        if known is not None and len(known) == len(args[0].vars):
            self.pinned += 1

    def _observe_vertices(self, args, vertices):
        self.vertices += len(vertices)

    def metrics(self) -> dict:
        """<group>.calls and <group>.self_s for every group, plus DERIVED."""
        calls = dict.fromkeys(GROUPS, 0)
        self_s = dict.fromkeys(GROUPS, 0.0)
        for _id, _parent, _q, group, _start, _end, own in self.spans:
            calls[group] += 1
            self_s[group] += own
        out = {}
        for g in GROUPS:
            out[g + ".calls"] = calls[g]
            out[g + ".self_s"] = self_s[g]
        lp_calls = sum(calls[g] for g in LP_GROUPS)
        premises = calls["linear.with_premise"]
        propagations = calls["linear.propagate_unit_box"]
        out["linear.vars_per_lp"] = self.lp_vars / lp_calls if lp_calls else 0.0
        out["linear.lp_per_premise"] = lp_calls / premises if premises else 0.0
        out["linear.propagate_unit_box.pinned_frac"] = (
            self.pinned / propagations if propagations else 0.0)
        out["linear.enumerate_vertices.vertices"] = self.vertices
        out["trace.self_sum_s"] = sum(self_s.values())
        return out

    def per_query(self) -> list:
        """For each query index: {group: [calls, self_s]}."""
        out = {}
        for _id, _parent, q, group, _start, _end, own in self.spans:
            entry = out.setdefault(q, {}).setdefault(group, [0, 0.0])
            entry[0] += 1
            entry[1] += own
        return [out.get(q, {}) for q in range(max(out, default=-1) + 1)]

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(
                    ("id", "parent", "query", "group", "start", "end",
                     "self_s"), span))) + "\n")
