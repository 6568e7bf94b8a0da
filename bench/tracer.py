"""Spans around corrdyn's public functions, recorded from outside corrdyn.

``install`` replaces each traced function at the name its callers look it
up by (``corrdyn.correspondence.roots``, ``Correspondence.branched_sets``,
...) with a wrapper that records a span: name, start, end, parent span and
op id.  Spans stay in memory; ``layer_metrics`` turns them into per-layer
numbers, with every time scaled by its op's reference-kernel factor.
"""

import statistics
import time
import weakref

# (span name, module, class holding the attributes or None, attribute names)
_TRACED = (
    ("polyalg.specialise", "corrdyn.polyalg", "BivariatePolynomial",
     ("univariate_in_z", "univariate_in_z_inverted")),
    ("polyalg.squarefree_factors", "corrdyn.polyalg", None, ("squarefree_factors",)),
    ("polyalg.roots", "corrdyn.correspondence", None, ("roots",)),
    ("polyalg.resultant", "corrdyn.correspondence", None, ("resultant_z", "resultant_w")),
    ("polyalg.squarefree_check", "corrdyn.correspondence", None, ("squarefree_check",)),
    ("correspondence.construct", "corrdyn.correspondence", "Correspondence", ("__init__",)),
    ("correspondence.branched_sets", "corrdyn.correspondence", "Correspondence",
     ("branched_sets",)),
    ("dynamics.chaos", "corrdyn.dynamics", None, ("limit_set_sample",)),
    ("dynamics.gp_enumerate", "corrdyn.dynamics", None, ("gp_enumerate",)),
    ("dynamics.expansive_oracle", "corrdyn.dynamics", None, ("expansive_oracle",)),
    ("bimodule.inner_product", "corrdyn.bimodule", None, ("inner_product",)),
    ("bimodule.fock_build", "corrdyn.bimodule", None, ("fock_build",)),
    ("bimodule.fock_relation_check", "corrdyn.bimodule", None, ("fock_relation_check",)),
    ("ktheory.smith_normal_form", "corrdyn.ktheory", None, ("smith_normal_form",)),
    ("ktheory.product_family_input", "corrdyn.ktheory", None, ("product_family_input",)),
    # the rest of each module's entry points the CLI calls, so that cli.self_s
    # holds only the CLI's own work
    ("dynamics.other", "corrdyn.dynamics", "CircleCorrespondence", ("to_correspondence",)),
    ("dynamics.other", "corrdyn.dynamics", "ArcSet", ("from_json",)),
    ("bimodule.other", "corrdyn.bimodule", "FiniteBimodule", ("build",)),
    ("bimodule.other", "corrdyn.bimodule", None, ("fock_report",)),
    ("ktheory.other", "corrdyn.ktheory", None,
     ("pimsner_solve", "kgroup_table", "monomial_family_input")),
)
FIBER = "correspondence.fiber"

# span names, each reported as <name>.self_s
SELF_TIMES = ("cli", FIBER) + tuple(dict.fromkeys(name for name, *_ in _TRACED))
CALL_COUNTS = (
    "polyalg.squarefree_factors", "polyalg.roots", "polyalg.resultant",
    "polyalg.squarefree_check", "correspondence.construct", FIBER,
    "correspondence.branched_sets", "bimodule.inner_product", "ktheory.smith_normal_form",
)

NAME, START, END, PARENT, OP, HIT = range(6)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, fiber hit]
        self.op = -1
        self._stack = []
        # fiber keys already requested, per Correspondence object
        self._seen = weakref.WeakKeyDictionary()

    def _record(self, name, fn, args, kwargs, hit=None):
        stack = self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, hit]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[END] = time.perf_counter()
            stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self._record(name, fn, args, kwargs)
        return traced

    def wrap_fiber(self, direction, fn):
        default_tol = fn.__defaults__[0]

        def traced(corr, base, tol=default_tol):
            seen = self._seen.setdefault(corr, set())
            key = (direction, base, tol)
            hit = key in seen
            seen.add(key)
            return self._record(FIBER, fn, (corr, base, tol), {}, hit)
        return traced

    def run_op(self, fn, *args):
        """Run one op as a top-level "cli" span."""
        self.op += 1
        return self._record("cli", fn, args, {})


def install(tracer: Tracer):
    import importlib

    for name, module, owner, attrs in _TRACED:
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
        for attr in attrs:
            raw = target.__dict__[attr] if owner is not None else getattr(target, attr)
            if isinstance(raw, staticmethod):
                setattr(target, attr, staticmethod(tracer.wrap(name, raw.__func__)))
            else:
                setattr(target, attr, tracer.wrap(name, raw))
    from corrdyn.correspondence import Correspondence

    for attr, direction in (("backward_fiber", "b"), ("forward_fiber", "f")):
        setattr(Correspondence, attr,
                tracer.wrap_fiber(direction, getattr(Correspondence, attr)))


def layer_metrics(spans, op_scale):
    """Per-layer numbers from spans; op_scale[op id] is R0 / R of that op."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    self_s = dict.fromkeys(SELF_TIMES, 0.0)
    calls = dict.fromkeys(CALL_COUNTS, 0)
    hits, misses_us, chaos_steps = 0, [], 0
    for i, s in enumerate(spans):
        name, scale = s[NAME], op_scale[s[OP]]
        self_s[name] += (s[END] - s[START] - child_time[i]) * scale
        if name in calls:
            calls[name] += 1
        if name == FIBER:
            if s[HIT]:
                hits += 1
            else:
                misses_us.append((s[END] - s[START]) * scale * 1e6)
            if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "dynamics.chaos":
                chaos_steps += 1
    metrics = {f"{name}.self_s": (value, "s") for name, value in self_s.items()}
    metrics.update({f"{name}.calls": (count, "count") for name, count in calls.items()})
    fibers = calls[FIBER]
    metrics[f"{FIBER}.hit_ratio"] = (hits / fibers if fibers else 0.0, "ratio")
    metrics[f"{FIBER}.miss_p50_us"] = (
        statistics.median(misses_us) if misses_us else 0.0, "us")
    metrics["dynamics.chaos.steps"] = (chaos_steps, "count")
    return metrics
