"""Spans and counters around the package's public functions.

The tracer wraps functions from the outside (the package is not edited) and
only while it is installed.  Every wrapped call is a frame on a stack, so a
layer's self time is its frames' time minus the time of their child frames.
Calls at a job's top level (run_search, cli.main, build_hom_ly, ...) are
also kept as spans with name, start, end, parent and job id.  Hot calls
(kernel products, Vector construction, per-candidate checks) are only
aggregated, per (function, calling function), into a count and a total
time.  Calls made outside a job (the runner's own bookkeeping) are not
traced.
"""

import os
import time
from collections import Counter, defaultdict

import homsuper
from homsuper import (cli, constructions, freealg, identities, kernel, report,
                      search, serialize)

MODULES = (homsuper, cli, constructions, freealg, identities, kernel, report,
           search, serialize)


def _count_search(tracer, args, outcome):
    tracer.counts["search.candidates"] += outcome.examined
    tracer.counts["search.hits"] += len(outcome.documents)


def _count_tuples(tracer, args, result):
    identity, algebra = args[0], args[1]
    # Keyed by id (hashing an AST walks it); the value keeps the identity
    # alive so its id is not reused.
    known = tracer.variables.get(id(identity))
    if known is None:
        known = tracer.variables[id(identity)] = (
            identity, len(identities.free_variables(identity)))
    variables = known[1]
    tracer.counts["identities.tuples"] += result.checked
    tracer.counts["identities.full_tuples"] += algebra.space.dim ** variables


def _count_bytes_read(tracer, args, result):
    tracer.counts["serialize.bytes_read"] += os.path.getsize(args[0])


def _count_cli(tracer, args, result):
    argv = args[0] if args else None
    if argv and argv[0] == "verify":
        tracer.counts["cli.verify_calls"] += 1


def _count_terms(tracer, args, expr):
    tracer.counts["freealg.expanded_terms"] += len(expr.terms())


def _count_obligations(tracer, args, result):
    tracer.counts["freealg.obligations"] += result.checked


def _count_witnesses(tracer, args, result):
    tracer.counts["report.counterexamples"] += len(args[0].counterexamples)


# (layer, owner, attribute, kept as a span, counting hook)
TRACED = (
    ("search", search, "run_search", True, _count_search),
    ("search", search.SearchSpec, "__init__", False, None),
    ("search", search.SearchSpec, "candidate", False, None),
    ("identities", identities, "suite_passes", False, None),
    ("identities", identities, "check_suite", False, None),
    ("identities", identities, "check_identity", False, _count_tuples),
    ("kernel", kernel.BilinearOp, "__call__", False, None),
    ("kernel", kernel.TernaryOp, "__call__", False, None),
    ("kernel", kernel.EvenMap, "__call__", False, None),
    ("kernel", kernel.EvenMap, "power", False, None),
    ("kernel", kernel.Vector, "__init__", False, None),
    ("kernel", kernel, "check_multiplicativity", False, None),
    ("kernel", kernel, "check_algebra_grading", False, None),
    ("kernel", kernel, "check_grading", False, None),
    ("constructions", constructions, "build_hom_ly", True, None),
    ("constructions", constructions, "build_hom_akivis", True, None),
    ("constructions", constructions, "check_lie_admissible", True, None),
    ("constructions", constructions, "check_ternary_equivalence", True, None),
    ("freealg", freealg, "prove_identity_free", True, _count_obligations),
    ("freealg", freealg, "expand_template", False, _count_terms),
    ("freealg", freealg, "normal_form", False, None),
    ("serialize", serialize, "load_algebra", True, _count_bytes_read),
    ("serialize", serialize, "save_algebra", True, None),
    ("serialize", serialize, "algebra_to_document", False, None),
    ("cli", cli, "main", True, _count_cli),
    ("report", report.Report, "__init__", False, _count_witnesses),
)


class Tracer:
    def __init__(self):
        self.spans = []          # (id, name, start, end, parent id, job id)
        self.calls = Counter()   # (name, caller) -> calls
        self.busy = Counter()    # (name, caller) -> seconds, children included
        self.self_s = defaultdict(float)   # layer -> seconds
        self.counts = Counter()
        self.variables = {}
        self._stack = []
        self._next_id = 0
        self._origin = time.perf_counter()
        self._installed = []

    # -- frames -----------------------------------------------------------

    def _enter(self, name, store):
        parent = self._stack[-1] if self._stack else None
        span = parent[3] if parent else None
        if store:
            span = self._next_id
            self._next_id += 1
        # [start, child seconds, name, span id, parent span id, job id]
        frame = [0.0, 0.0, name, span, parent[3] if parent else None,
                 parent[5] if parent else None]
        self._stack.append(frame)
        frame[0] = time.perf_counter()
        return frame, parent

    def _exit(self, frame, parent, layer, store):
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[0]
        self.self_s[layer] += duration - frame[1]
        key = (frame[2], parent[2] if parent else None)
        self.calls[key] += 1
        self.busy[key] += duration
        if parent is not None:
            parent[1] += duration
        if store:
            self.spans.append((frame[3], frame[2], frame[0] - self._origin,
                               end - self._origin, frame[4], frame[5]))

    def job(self, job_id, run, *args):
        """Run one job as the root span of its own trace tree."""
        frame, parent = self._enter("job", True)
        frame[5] = job_id
        try:
            return run(*args)
        finally:
            self._exit(frame, parent, "bench", True)

    def count(self, counts):
        self.counts.update(counts)

    # -- installing wrappers ----------------------------------------------

    def _wrap(self, name, layer, original, store, hook):
        tracer = self
        stack = self._stack

        def traced(*args, **kwargs):
            if not stack:
                return original(*args, **kwargs)
            frame, parent = tracer._enter(name, store)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(frame, parent, layer, store)
            if hook is not None:
                started = time.perf_counter()
                hook(tracer, args, result)
                parent[1] += time.perf_counter() - started
            return result

        traced.__wrapped__ = original
        return traced

    def install(self):
        for layer, owner, attribute, store, hook in TRACED:
            original = getattr(owner, attribute)
            name = "%s.%s" % (layer, getattr(original, "__qualname__",
                                             attribute))
            wrapper = self._wrap(name, layer, original, store, hook)
            targets = [(owner, attribute)]
            if not isinstance(owner, type):
                # Also replace the aliases other modules imported by name.
                targets += [(module, alias) for module in MODULES
                            for alias, value in list(vars(module).items())
                            if value is original and (module, alias)
                            != (owner, attribute)]
            for target, alias in targets:
                self._installed.append((target, alias, original))
                setattr(target, alias, wrapper)

    def uninstall(self):
        for target, alias, original in reversed(self._installed):
            setattr(target, alias, original)
        self._installed.clear()

    # -- results ----------------------------------------------------------

    def total(self, name, callers=None):
        """(calls, seconds) of a function, optionally only from callers."""
        calls = seconds = 0
        for (called, caller), n in self.calls.items():
            if called == name and (callers is None or caller in callers):
                calls += n
                seconds += self.busy[(called, caller)]
        return calls, seconds

    def to_data(self):
        return {
            "spans": [dict(zip(("id", "name", "start", "end", "parent",
                                "job"), span)) for span in self.spans],
            "calls": [{"name": name, "caller": caller, "calls": n,
                       "seconds": self.busy[(name, caller)]}
                      for (name, caller), n in self.calls.items()],
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }


def _per_call(seconds, calls):
    """Microseconds per call."""
    return seconds / calls * 1e6 if calls else 0.0


def layer_metrics(tracer, rounds, properties, speed=1.0):
    """The per-layer metrics of one traced run, per round of jobs.

    Counts are exact per-round integers when every round did the same work;
    times are multiplied by `speed`, the machine's speed relative to the
    reference computation's nominal one.
    """
    def per_round(value):
        if isinstance(value, int) and value % rounds == 0:
            return value // rounds
        return value / rounds

    def calls(name, callers=None):
        return tracer.total(name, callers)[0]

    def busy(name, callers=None):
        return tracer.total(name, callers)[1]

    def count(name):
        return per_round(calls(name)), "count"

    def seconds(name):
        return busy(name) / rounds, "s"

    def us_per_call(name, per=None):
        calls_, busy_ = tracer.total(name)
        return _per_call(busy_, calls_ if per is None else per), "us"

    def self_s(layer):
        return tracer.self_s.get(layer, 0.0) / rounds, "s"

    counts = tracer.counts
    candidates = counts["search.candidates"]
    tuples = counts["identities.tuples"]
    built = busy("constructions.build_hom_ly") + busy(
        "constructions.build_hom_akivis")
    grading = (busy("kernel.check_algebra_grading")
               + busy("kernel.check_grading")
               - busy("kernel.check_grading",
                      callers=("kernel.check_algebra_grading",)))
    verifying = busy("identities.check_suite",
                     callers=("constructions.build_hom_ly",
                              "constructions.build_hom_akivis"))
    values = {
        "search.candidates": (per_round(candidates), "count"),
        "search.hits": (per_round(counts["search.hits"]), "count"),
        "search.hit_ratio": (counts["search.hits"] / candidates
                             if candidates else 0.0, "ratio"),
        "search.candidate_us": us_per_call("search.SearchSpec.candidate"),
        "search.check_us": us_per_call("identities.suite_passes"),
        "search.self_s": self_s("search"),
        "search.alpha_id_share": (properties.get("alpha_id_share", 0.0)
                                  if candidates else 0.0, "ratio"),
        "identities.check_calls": count("identities.check_identity"),
        "identities.tuples": (per_round(tuples), "count"),
        "identities.tuple_us": us_per_call("identities.check_identity",
                                           per=tuples),
        "identities.scan_fraction": (
            tuples / counts["identities.full_tuples"] if tuples else 0.0,
            "ratio"),
        "identities.self_s": self_s("identities"),
        "kernel.bilinear_calls": count("kernel.BilinearOp.__call__"),
        "kernel.ternary_calls": count("kernel.TernaryOp.__call__"),
        "kernel.map_calls": count("kernel.EvenMap.__call__"),
        "kernel.power_calls": count("kernel.EvenMap.power"),
        "kernel.vectors": count("kernel.Vector.__init__"),
        "kernel.multiplicativity_calls": count(
            "kernel.check_multiplicativity"),
        "kernel.multiplicativity_s": seconds("kernel.check_multiplicativity"),
        "kernel.grading_s": (grading / rounds, "s"),
        "kernel.self_s": self_s("kernel"),
        "constructions.ly_s": seconds("constructions.build_hom_ly"),
        "constructions.akivis_s": seconds("constructions.build_hom_akivis"),
        "constructions.admissible_s": seconds(
            "constructions.check_lie_admissible"),
        "constructions.ternary_equiv_s": seconds(
            "constructions.check_ternary_equivalence"),
        "constructions.self_s": self_s("constructions"),
        "constructions.verify_share": (verifying / built if built else 0.0,
                                       "ratio"),
        "freealg.obligations": (per_round(counts["freealg.obligations"]),
                                "count"),
        "freealg.expand_s": seconds("freealg.expand_template"),
        "freealg.normalize_s": seconds("freealg.normal_form"),
        "freealg.expanded_terms": (per_round(counts["freealg.expanded_terms"]),
                                   "count"),
        "freealg.self_s": self_s("freealg"),
        "serialize.loads": count("serialize.load_algebra"),
        "serialize.load_us": us_per_call("serialize.load_algebra"),
        "serialize.bytes_read": (per_round(counts["serialize.bytes_read"]),
                                 "bytes"),
        "serialize.to_document_us": us_per_call(
            "serialize.algebra_to_document"),
        "serialize.docs_written": count("serialize.save_algebra"),
        "cli.verify_calls": (per_round(counts["cli.verify_calls"]), "count"),
        "cli.bytes_out": (per_round(counts["cli.bytes_out"]), "bytes"),
        "cli.self_s": self_s("cli"),
        "report.counterexamples": (per_round(counts["report.counterexamples"]),
                                   "count"),
    }
    return {name: (value * speed if unit in ("s", "us") else value, unit)
            for name, (value, unit) in values.items()}
