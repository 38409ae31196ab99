"""Per-layer tracing from outside gpdcov.

:class:`Tracer` wraps the public functions of each gpdcov module, one
layer per module, and records a span per call: name, start, end, parent
span and job id.  Self time is a span's duration minus the time of its
wrapped children.  A generator is timed across its iteration: each
``next`` is a span, and the call is counted once.

A function is wrapped in every ``gpdcov.*`` namespace that binds it,
because ``from .covering import check_covering`` makes a separate binding;
methods are wrapped on their class.  :meth:`Tracer.restore` puts every
original back.
"""

from __future__ import annotations

import array
import gzip
import inspect
import sys
import time

# module -> attribute paths of the traced functions and methods
LAYERS = {
    "groups": ("FiniteGroup.subgroups", "FiniteGroup.closure",
               "find_isomorphism", "FiniteGroup.__init__"),
    "groupoid": ("validate", "FiniteGroupoid.__init__",
                 "FiniteGroupoid.__eq__", "FiniteGroupoid.hom", "star",
                 "components", "vertex_group"),
    "covering": ("GroupoidMorphism.__init__",
                 "GroupoidMorphism.functoriality_violations",
                 "compose_morphisms", "check_covering", "lift_morphism",
                 "all_morphisms", "covering_morphisms",
                 "equivalent_coverings", "find_covering_isomorphism"),
    "construct": ("covering_from_subgroup", "orbit_groupoid",
                  "GroupAction.validate", "quotient_comparison"),
    "transform": ("covering_transformations", "CovGroup.__init__",
                  "is_regular", "cov_normalizer_iso"),
    "classify": ("build_lattice", "pullback_covering", "fibered_product",
                 "meet_covering", "pushout_covering", "classify_covering"),
    "topos": ("exponential", "adjunction_check", "covering_to_presheaf",
              "presheaf_to_covering", "subobjects", "omega"),
    "documents": ("parse_groupoid", "parse_morphism", "parse_presheaf",
                  "emit_covering", "emit_presheaf", "dumps"),
    "cli": ("main",),
    "selftest": ("check_covering_soundness", "check_existence_theorem",
                 "check_fold_and_stabilizers", "check_unique_lifting",
                 "check_cov_group_theorems", "check_orbit_round_trip",
                 "check_main_lattice", "check_topos_classifier",
                 "check_presheaf_round_trip", "check_pullback_components"),
}

# Metric prefixes that drop the class name of a method.
SHORT_NAMES = {"groups.FiniteGroup.subgroups": "groups.subgroups",
               "groups.FiniteGroup.closure": "groups.closure"}

# (metric prefix, module, attribute path)
TRACED = [(SHORT_NAMES.get(f"{mod}.{path}", f"{mod}.{path}"), mod, path)
          for mod, paths in LAYERS.items() for path in paths]

# Layers that only report self time: one call per battery says nothing.
SELF_TIME_ONLY = ("selftest.",)


# metric prefix -> [(counter name, f(args, result) -> amount)]
COUNTERS = {
    "groupoid.FiniteGroupoid.__init__": [
        ("groupoid.FiniteGroupoid.arrows_built",
         lambda args, result: len(args[0].dom)),
        ("groupoid.FiniteGroupoid.compose_entries_built",
         lambda args, result: len(args[0].compose)),
    ],
    "groupoid.FiniteGroupoid.__eq__": [
        ("groupoid.FiniteGroupoid.__eq__.same_object",
         lambda args, result: args[0] is args[1]),
    ],
    "covering.check_covering": [
        ("covering.check_covering.failures",
         lambda args, result: type(result).__name__ == "CoveringFailure"),
    ],
    "topos.exponential": [
        ("topos.exponential.arrows_built",
         lambda args, result: result.covering.total.n_arrows),
    ],
    "documents.dumps": [
        ("documents.dumps.bytes",
         lambda args, result: len(result.encode("utf-8"))),
    ],
}
YIELD_COUNTERS = {"covering.all_morphisms": "covering.all_morphisms.yielded"}


class Tracer:
    """Spans and per-function totals for one process; single-threaded."""

    def __init__(self):
        self.names = [prefix for prefix, _, _ in TRACED]
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.counters = dict.fromkeys(
            [c for hooks in COUNTERS.values() for c, _ in hooks]
            + list(YIELD_COUNTERS.values()), 0)
        self.job = -1
        # span columns
        self.span_name = array.array("i")
        self.span_start = array.array("q")
        self.span_end = array.array("q")
        self.span_parent = array.array("q")
        self.span_job = array.array("i")
        self._stack = []     # open span indices
        self._child = []     # child time of each open span
        self._saved = []     # (owner, attribute, original)

    # -- spans ------------------------------------------------------------

    def _open(self, sid):
        idx = len(self.span_name)
        self.span_name.append(sid)
        self.span_start.append(time.perf_counter_ns())
        self.span_end.append(0)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_job.append(self.job)
        self._stack.append(idx)
        self._child.append(0)
        return idx

    def _close(self, sid, idx):
        end = time.perf_counter_ns()
        self.span_end[idx] = end
        self._stack.pop()
        duration = end - self.span_start[idx]
        self.self_ns[sid] += duration - self._child.pop()
        if self._child:
            self._child[-1] += duration

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, sid, fn):
        tracer = self
        hooks = COUNTERS.get(self.names[sid], ())

        def traced(*args, **kwargs):
            tracer.calls[sid] += 1
            idx = tracer._open(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, idx)
            for counter, amount in hooks:
                tracer.counters[counter] += amount(args, result)
            return result
        return traced

    def _wrap_generator(self, sid, fn):
        tracer = self
        counter = YIELD_COUNTERS.get(self.names[sid])

        def traced(*args, **kwargs):
            tracer.calls[sid] += 1
            it = fn(*args, **kwargs)
            try:
                while True:
                    idx = tracer._open(sid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(sid, idx)
                    if counter:
                        tracer.counters[counter] += 1
                    yield item
            finally:
                it.close()
        return traced

    def install(self):
        """Wrap every traced function in every gpdcov module."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "gpdcov" or name.startswith("gpdcov.")}
        for sid, (_, mod, path) in enumerate(TRACED):
            owner = modules[f"gpdcov.{mod}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrap = (self._wrap_generator
                    if inspect.isgeneratorfunction(original) else self._wrap)
            wrapped = wrap(sid, original)
            if outer:  # a method: patch the class
                self._patch(owner, attr, wrapped)
                continue
            for module in modules.values():
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapped)
            if mod == "selftest":
                self._patch_acceptance_registry(modules["gpdcov.selftest"],
                                                original, wrapped)

    def _patch_acceptance_registry(self, selftest, original, wrapped):
        checks = selftest.ACCEPTANCE_CHECKS
        self._patch(selftest, "ACCEPTANCE_CHECKS", tuple(
            (num, title, wrapped if fn is original else fn)
            for num, title, fn in checks))

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics, each per traced round."""
        out = {}

        def put(name, value, unit):
            value = value / rounds
            if unit in ("count", "bytes") and value == int(value):
                value = int(value)
            out[name] = {"value": value, "unit": unit}

        for sid, prefix in enumerate(self.names):
            if not prefix.startswith(SELF_TIME_ONLY):
                put(f"{prefix}.calls", self.calls[sid], "count")
            put(f"{prefix}.self_s", self.self_ns[sid] / 1e9, "s")
        eq = self.names.index("groupoid.FiniteGroupoid.__eq__")
        same = self.counters.pop("groupoid.FiniteGroupoid.__eq__.same_object")
        for name, value in self.counters.items():
            put(name, value, "bytes" if name.endswith(".bytes") else "count")
        out["groupoid.FiniteGroupoid.__eq__.same_object_share"] = {
            "value": same / self.calls[eq] if self.calls[eq] else 0.0,
            "unit": "ratio"}
        return out

    def write_spans(self, path: str):
        """Spans as gzipped TSV: id, name, start_ns, end_ns, parent, job."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\tjob\n")
            names = self.names
            for i, (sid, start, end, parent, job) in enumerate(zip(
                    self.span_name, self.span_start, self.span_end,
                    self.span_parent, self.span_job)):
                fh.write(f"{i}\t{names[sid]}\t{start}\t{end}\t{parent}\t"
                         f"{job}\n")
