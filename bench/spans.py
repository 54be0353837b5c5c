"""Outside-in tracing of the bipmatch layers.

``Tracer.install()`` rebinds, in every loaded ``bipmatch.*`` module
namespace (and in the CLI's solver table), each public function named in
``TARGETS`` to a wrapper that records a span: name, start, end, parent span
and counts taken from the call's arguments or return value. Spans stay in
memory; ``write`` dumps them as JSON lines and ``per_job_metrics`` turns
them into per-layer numbers. Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from time import perf_counter


def _graph_m(args, kwargs, result):
    return {"m": args[0].edge_count}


# (module, function) -> count extractor(args, kwargs, result) or None.
TARGETS = {
    ("graph", "parse_instance"): None,
    ("graph", "matching_from_json"): None,
    ("matching", "max_cardinality_matching"): None,
    ("solvers", "solve_exact"):
        lambda a, k, r: {"augmentations": r.stats.iterations, "m": a[0].edge_count},
    ("solvers", "solve_auction"):
        lambda a, k, r: {"phases": r.stats.phases, "bids": r.stats.iterations},
    ("solvers", "solve_via_rounding"): None,
    ("prices", "round_to_optimal"): None,
    ("prices", "check_dual_feasible"): None,
    ("prices", "check_complementary_slackness"): None,
    ("prices", "prices_from_json"): None,
    ("prices", "prices_to_json"): None,
    ("tight", "build_gcs"):
        lambda a, k, r: {"tight": r.edge_count, "m": a[0].edge_count},
    ("allowed", "optimal_edges"): lambda a, k, r: {"optimal": len(r)},
    ("allowed", "allowed_edges"): None,
    ("enumeration", "iter_min_weight_perfect_matchings"): None,  # generator
    ("preallocation", "preallocate"): None,
    ("preallocation", "parse_preferences"): None,
    ("transforms", "optimum_matching"): _graph_m,
    ("transforms", "choose_strategy"): lambda a, k, r: {"strategy": r},
}
GENERATORS = {("enumeration", "iter_min_weight_perfect_matchings")}
STRATEGIES = ("doubling", "half-doubling", "artificial")


class Span:
    __slots__ = ("id", "parent", "job", "name", "start", "end", "counts")

    def __init__(self, span_id, parent, job, name):
        self.id = span_id
        self.parent = parent
        self.job = job
        self.name = name
        self.counts = {}
        self.start = perf_counter()
        self.end = None

    def to_json(self) -> dict:
        return {"id": self.id, "parent": self.parent, "job": self.job,
                "name": self.name, "start": self.start, "end": self.end,
                "counts": self.counts}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job = None
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self.job, name)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        popped = self._stack.pop()
        assert popped is span, "spans must close in LIFO order"

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if counter is not None:
                span.counts.update(counter(args, kwargs, result))
            return result
        return wrapper

    def _wrap_generator(self, name, fn):
        """One span per next() pull, so time the caller spends between
        pulls is not charged to the generator."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def pulls():
                while True:
                    span = tracer.open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(span)
                    span.counts["outputs"] = 1
                    yield item
            return pulls()
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Rebind every target in every loaded bipmatch namespace."""
        wrappers = {}
        for (module, fname), counter in TARGETS.items():
            original = getattr(sys.modules[f"bipmatch.{module}"], fname)
            name = f"{module}.{fname}"
            wrappers[id(original)] = (self._wrap_generator(name, original)
                                      if (module, fname) in GENERATORS
                                      else self._wrap(name, original, counter))
        for modname, module in list(sys.modules.items()):
            if modname != "bipmatch" and not modname.startswith("bipmatch."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and callable(value):
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        solvers = sys.modules["bipmatch.cli"]._SOLVERS
        for key, value in list(solvers.items()):
            if id(value) in wrappers:
                self._undo.append((solvers, key, value))
                solvers[key] = wrappers[id(value)]

    def uninstall(self) -> None:
        for target, attr, value in reversed(self._undo):
            if isinstance(target, dict):
                target[attr] = value
            else:
                setattr(target, attr, value)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_json()) + "\n")


# -- per-layer metrics -------------------------------------------------------

def layer_metric_names(verbs) -> list[str]:
    """Every per-layer metric name, in report order."""
    names = [f"cli.{verb}.s" for verb in verbs] + ["cli.self_s"]
    names += [f"{module}.{fname}.s" for module, fname in TARGETS]
    return names + list(LAYER_UNITS)


# Per-layer metrics that are not times, with their units.
LAYER_UNITS = {
    "matching.max_cardinality_matching.calls": "count",
    "solvers.solve_exact.augmentations": "count",
    "solvers.solve_auction.phases": "count",
    "solvers.solve_auction.bids": "count",
    "tight.build_gcs.calls": "count",
    "tight.tight_edge_ratio": "ratio",
    "allowed.optimal_edge_ratio": "ratio",
    "enumeration.outputs": "count",
    "enumeration.hk_calls_per_output": "calls/output",
    "transforms.edge_blowup_ratio": "ratio",
    **{f"transforms.strategy.{s}.jobs": "count" for s in STRATEGIES},
}


def _ratio(num, den):
    return num / den if den else None


def _job_values(spans: list[Span]) -> dict[str, float]:
    """Per-layer values of one job; ratios are None where undefined."""
    by_id = {s.id: s for s in spans}
    child_time = {s.id: 0.0 for s in spans}
    for s in spans:
        if s.parent in child_time:
            child_time[s.parent] += s.end - s.start

    def under(span, name):
        p = span.parent
        while p is not None and p in by_id:
            if by_id[p].name == name:
                return by_id[p]
            p = by_id[p].parent
        return None

    v: dict[str, float] = {}

    def add(key, x):
        v[key] = v.get(key, 0) + x

    tight = m = optimal = opt_tight = outputs = enum_hk = 0
    blow_num = blow_den = 0
    for s in spans:
        self_s = s.end - s.start - child_time[s.id]
        if s.name.startswith("cli."):
            add(f"{s.name}.s", s.end - s.start)
            add("cli.self_s", self_s)
            continue
        add(f"{s.name}.s", self_s)
        c = s.counts
        if s.name == "matching.max_cardinality_matching":
            add("matching.max_cardinality_matching.calls", 1)
            if under(s, "enumeration.iter_min_weight_perfect_matchings"):
                enum_hk += 1
        elif s.name == "solvers.solve_exact":
            add("solvers.solve_exact.augmentations", c["augmentations"])
            parent = under(s, "transforms.optimum_matching")
            if parent is not None:
                blow_num += c["m"]
                blow_den += parent.counts["m"]
        elif s.name == "solvers.solve_auction":
            add("solvers.solve_auction.phases", c["phases"])
            add("solvers.solve_auction.bids", c["bids"])
        elif s.name == "tight.build_gcs":
            add("tight.build_gcs.calls", 1)
            tight += c["tight"]
            m += c["m"]
            if by_id.get(s.parent) and by_id[s.parent].name == "allowed.optimal_edges":
                opt_tight += c["tight"]
        elif s.name == "allowed.optimal_edges":
            optimal += c["optimal"]
        elif s.name == "enumeration.iter_min_weight_perfect_matchings":
            outputs += c.get("outputs", 0)
        elif s.name == "transforms.choose_strategy":
            add(f"transforms.strategy.{c['strategy']}.jobs", 1)
    v["enumeration.outputs"] = outputs
    v["tight.tight_edge_ratio"] = _ratio(tight, m)
    v["allowed.optimal_edge_ratio"] = _ratio(optimal, opt_tight)
    v["enumeration.hk_calls_per_output"] = _ratio(enum_hk, outputs)
    v["transforms.edge_blowup_ratio"] = _ratio(blow_num, blow_den)
    return v


def per_job_metrics(tracer: Tracer, job_scales: dict, verbs) -> dict[str, float]:
    """Median over the given traced jobs of each per-layer value, times
    first multiplied by their job's speed scale; strategy counts are totals
    over the jobs. A ratio is the median over the jobs where it is defined,
    and 0 where it never is."""
    spans_by_job: dict[object, list[Span]] = {job: [] for job in job_scales}
    for s in tracer.spans:
        if s.job in spans_by_job:
            spans_by_job[s.job].append(s)
    values = []
    for job, spans in spans_by_job.items():
        v = _job_values(spans)
        for name in v:
            if name not in LAYER_UNITS:  # a time
                v[name] *= job_scales[job]
        values.append(v)
    out = {}
    for name in layer_metric_names(verbs):
        if name.startswith("transforms.strategy."):
            out[name] = sum(v.get(name, 0) for v in values)
            continue
        samples = [v.get(name, 0) for v in values]
        samples = [x for x in samples if x is not None]
        out[name] = statistics.median(samples) if samples else 0.0
    return out
