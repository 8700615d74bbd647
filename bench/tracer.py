"""Per-layer tracing of one diffkit invocation, installed from outside.

`Tracer.install` replaces public functions of diffkit with timing or
counting wrappers, in every module namespace that bound the function by
name (`morphisms_equal` lives in `morphisms`, `kernel` and `monad`;
`add_elem` in `spaces`, `kernel`, `models.findiff` and `models.streams`),
and wraps `derivative`, `epsilon` and `random_subjects` on each model
class. Nothing under `src/` changes.

Spans stay in memory as tuples `(id, name, parent, invocation, start,
end, attrs)` and are written out when the invocation ends. The hot
leaves (element ops, the integer codec, `codec_size`, enumeration) get
counts only, so a traced run stays bounded. A wrapper given a family
counts or times only calls made from outside that family, so recursion
inside `add_elem` or `v_add` is one call.

`layer_metrics` turns the spans and counts of a pass into the per-layer
metrics; a layer's self time is its span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import sys
import time
import weakref
from collections import Counter, defaultdict

SPANS = {
    "diffkit.cli": ["main", "run_check"],
    "diffkit.monad": ["check_kleisli_cdc", "check_monad_laws",
                      "check_tangent_identities", "check_linear_algebra",
                      "kleisli_compose"],
    "diffkit.lambda_closed": ["run_lambda_suite"],
    "diffkit.kernel": ["check_flatness", "check_axiom", "axiom_sides"],
    "diffkit.changeaction": ["check_change_action", "check_cad_derivative"],
}
V_ARITH = ["v_add", "v_neg", "v_sub", "v_scale", "v_trunc", "v_splice0"]
# (module, function names, family, counter name)
COUNTED = [
    ("diffkit.spaces", ["add_elem", "neg_elem", "sub_elem", "scale_elem",
                        "elements_equal"], "elem", "spaces.elem_ops"),
    ("diffkit.spaces", ["encode", "decode"], "codec", "spaces.codec_ops"),
    ("diffkit.spaces", ["codec_size"], "codec_size", "spaces.codec_size"),
    ("diffkit.spaces", ["iter_space", "enumerate_space"], "enum", "spaces.enum"),
    ("diffkit.kernel", ["identity", "projection", "compose", "pair", "add",
                        "negate", "zero_map"], None, "kernel.combinator"),
    ("diffkit.monad", ["T_map", "mu", "eta"], None, "monad.structure"),
]


class Tracer:
    def __init__(self, invocation: int):
        self.invocation = invocation
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack = [0]
        self._next = 1
        self._busy: set = set()
        self._derived = weakref.WeakSet()
        self._originals: dict = {}

    # -- wrappers

    def _timed(self, name, fn, attrs=None, family=None):
        stack, spans, busy, clock = self._stack, self.spans, self._busy, time.perf_counter

        def wrapper(*a, **kw):
            if family is not None:
                if family in busy:
                    return fn(*a, **kw)
                busy.add(family)
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            ok = False
            t0 = clock()
            try:
                out = fn(*a, **kw)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                if family is not None:
                    busy.discard(family)
                spans.append((sid, name, parent, self.invocation, t0, t1,
                               attrs(a, kw, out) if ok and attrs else None))
            return out

        return wrapper

    def _counted(self, name, fn, family=None):
        counts, busy = self.counts, self._busy
        if family is None:
            def wrapper(*a, **kw):
                counts[name] += 1
                return fn(*a, **kw)
            return wrapper

        def wrapper(*a, **kw):
            if family in busy:
                return fn(*a, **kw)
            busy.add(family)
            counts[name] += 1
            try:
                return fn(*a, **kw)
            finally:
                busy.discard(family)

        return wrapper

    def _tabulate(self, fn):
        """Spans for calls that must build a table; records whether a
        builder made it or the closure was evaluated over the domain."""
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def wrapper(m, *a, **kw):
            if m.table is not None:
                return fn(m, *a, **kw)
            builder = m.table_builder
            built: list = []
            proxy = None
            if builder is not None:
                def proxy():
                    tbl = builder()
                    built.append(tbl is not None)
                    return tbl
                m.table_builder = proxy
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            out = None
            ok = False
            t0 = clock()
            try:
                out = fn(m, *a, **kw)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                if proxy is not None and m.table_builder is proxy:
                    m.table_builder = builder
                attrs = None
                if ok:
                    fallback = out is not None and not any(built)
                    attrs = (-1 if out is None else len(out), fallback)
                spans.append((sid, "morphisms.tabulate", parent, self.invocation,
                              t0, t1, attrs))
            return out

        return wrapper

    def _equal_attrs(self, a, kw, rep):
        """(path, exhaustive, checked, passed, test-set size) of one comparison."""
        f, g = a[0], a[1]
        strat = a[2] if len(a) > 2 else kw["strat"]
        self._busy.add("codec_size")  # keep these lookups out of the counts
        try:
            strat = strat.resolve(f.dom)
            n = self._originals["codec_size"](f.dom)
            space_size = self._originals["space_size"](f.dom)
        finally:
            self._busy.discard("codec_size")
        exhaustive = rep.mode == "exhaustive"
        table = (exhaustive and n is not None and n <= strat.bound
                 and f.table is not None and g.table is not None)
        if table:
            size = n
        elif exhaustive:
            size = space_size
        else:
            size = strat.mode.count
        return ("table" if table else "closure", exhaustive, rep.checked,
                rep.passed, size)

    def _model_methods(self, cls):
        if getattr(cls.derivative, "traced", False):
            return  # a subclass of a class already wrapped
        counts, derived = self.counts, self._derived
        derivative, epsilon = cls.derivative, cls.epsilon

        def traced_derivative(model, f):
            out = derivative(model, f)
            counts["models.derivative"] += 1
            if out not in derived:
                derived.add(out)
                counts["models.derivative_distinct"] += 1
            return out

        def traced_epsilon(model, f):
            counts["models.epsilon"] += 1
            return epsilon(model, f)

        traced_derivative.traced = True
        cls.derivative = traced_derivative
        cls.epsilon = traced_epsilon
        cls.random_subjects = self._timed(
            "models.random_subjects", cls.random_subjects,
            attrs=lambda a, kw, out: len(out))

    # -- installation

    def install(self):
        """Wrap diffkit in place; call after `diffkit.cli` is imported."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "diffkit" or name.startswith("diffkit.")}
        spaces = mods["diffkit.spaces"]
        self._originals = {"codec_size": spaces.codec_size,
                           "space_size": spaces.space_size}
        wrappers = {}

        def add(fn, wrapper):
            wrappers[id(fn)] = wrapper

        for modname, names in SPANS.items():
            for name in names:
                fn = getattr(mods[modname], name)
                label = f"{modname.split('.')[-1]}.{name}"
                add(fn, self._timed(label, fn))
        morphisms = mods["diffkit.morphisms"]
        add(morphisms.morphisms_equal, self._timed(
            "morphisms.morphisms_equal", morphisms.morphisms_equal,
            attrs=self._equal_attrs))
        add(morphisms.tabulate, self._tabulate(morphisms.tabulate))
        add(spaces.sample_space, self._timed(
            "spaces.sample_space", spaces.sample_space,
            attrs=lambda a, kw, out: len(out), family="sample"))
        for name in V_ARITH:
            fn = getattr(spaces, name)
            add(fn, self._timed("spaces.v_arith", fn, family="v"))
        for modname, names, family, counter in COUNTED:
            for name in names:
                fn = getattr(mods[modname], name)
                add(fn, self._counted(counter, fn, family))

        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                wrapper = wrappers.get(id(val))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

        base = mods["diffkit.kernel"].DifferenceModel
        todo = list(base.__subclasses__())
        while todo:
            cls = todo.pop(0)
            todo.extend(cls.__subclasses__())
            self._model_methods(cls)


def _outermost(span, by_id, within=None) -> bool:
    """No ancestor has the span's name (or, given `within`, is in it)."""
    parent = span[2]
    while parent in by_id:
        p = by_id[parent]
        if (p[0] in within) if within is not None else (p[1] == span[1]):
            return False
        parent = p[2]
    return True


# Every metric `layer_metrics` gives, so that one a pass never touches
# reads 0 rather than missing.
_NAMES = (
    "spaces.v_arith_s", "spaces.v_arith_n", "spaces.elem_ops_n",
    "spaces.codec_ops_n", "spaces.codec_size_n", "spaces.sample_s",
    "spaces.sample_points", "spaces.enum_n",
    "morphisms.equal_n", "morphisms.equal_s",
    "morphisms.equal_table_n", "morphisms.equal_table_s",
    "morphisms.equal_closure_n", "morphisms.equal_closure_s",
    "morphisms.table_points", "morphisms.closure_points",
    "morphisms.table_points_per_s", "morphisms.closure_points_per_s",
    "morphisms.exhaustive_points", "morphisms.sampled_points",
    "morphisms.tabulate_n", "morphisms.tabulate_s",
    "morphisms.tabulate_fallback_n", "morphisms.tabulate_fallback_s",
    "morphisms.tabulate_none_n", "morphisms.table_entries",
    "morphisms.refuted_n", "morphisms.refute_scan_ratio",
    "kernel.check_axiom_n", "kernel.check_axiom_self_s", "kernel.sides_s",
    "kernel.combinator_n", "kernel.flatness_s",
    "models.subjects_s", "models.subjects_n", "models.derivative_n",
    "models.derivative_distinct_n", "models.derivative_reuse_ratio",
    "models.epsilon_n",
    "monad.kleisli_compose_n", "monad.kleisli_compose_s", "monad.oracle_s",
    "monad.oracle_points", "monad.structure_n",
    "changeaction.ca_s", "changeaction.cad_s",
    "lambda_closed.suite_s",
    "cli.command_s", "cli.report_s",
)


def layer_metrics(invocations) -> dict:
    """Per-layer metrics summed over `(spans, counts)` of several invocations."""
    m: dict = dict.fromkeys(_NAMES, 0.0)
    scan_points = scan_size = 0
    for spans, counts in invocations:
        by_id = {s[0]: s for s in spans}
        fills = {s[0] for s in spans if s[1] == "morphisms.tabulate" and s[6] and s[6][1]}
        covered: dict = defaultdict(float)
        for s in spans:
            covered[s[2]] += s[5] - s[4]
        for s in spans:
            sid, name, parent, _, t0, t1, attrs = s
            dur = t1 - t0
            if name == "cli.main":
                m["cli.command_s"] += covered[sid]
                m["cli.report_s"] += dur - covered[sid]
            elif name == "kernel.check_axiom":
                m["kernel.check_axiom_n"] += 1
                m["kernel.check_axiom_self_s"] += dur - covered[sid]
            elif name == "morphisms.morphisms_equal":
                m["morphisms.equal_n"] += 1
                m["morphisms.equal_s"] += dur
                if attrs is None:
                    continue
                path, exhaustive, checked, passed, size = attrs
                m[f"morphisms.equal_{path}_n"] += 1
                m[f"morphisms.equal_{path}_s"] += dur
                m[f"morphisms.{path}_points"] += checked
                mode = "exhaustive" if exhaustive else "sampled"
                m[f"morphisms.{mode}_points"] += checked
                if not passed:
                    m["morphisms.refuted_n"] += 1
                    scan_points += checked
                    scan_size += size
                if by_id.get(parent, (None, None))[1] == "monad.kleisli_compose":
                    m["monad.oracle_s"] += dur
                    m["monad.oracle_points"] += checked
            elif name == "morphisms.tabulate":
                if _outermost(s, by_id):
                    m["morphisms.tabulate_n"] += 1
                    m["morphisms.tabulate_s"] += dur
                if attrs is None:
                    continue
                size, fallback = attrs
                if size < 0:
                    m["morphisms.tabulate_none_n"] += 1
                else:
                    m["morphisms.table_entries"] += size
                if fallback:
                    m["morphisms.tabulate_fallback_n"] += 1
                    if _outermost(s, by_id, within=fills):
                        m["morphisms.tabulate_fallback_s"] += dur
            elif name == "monad.kleisli_compose":
                m["monad.kleisli_compose_n"] += 1
                if _outermost(s, by_id):
                    m["monad.kleisli_compose_s"] += dur
            elif name == "models.random_subjects":
                if _outermost(s, by_id):
                    m["models.subjects_s"] += dur
                if attrs is not None:
                    m["models.subjects_n"] += attrs
            elif name == "spaces.sample_space":
                m["spaces.sample_s"] += dur
                if attrs is not None:
                    m["spaces.sample_points"] += attrs
            elif name == "spaces.v_arith":
                m["spaces.v_arith_n"] += 1
                m["spaces.v_arith_s"] += dur
            elif name in _INCLUSIVE and _outermost(s, by_id):
                m[_INCLUSIVE[name]] += dur
        for counter, value in counts.items():
            m[counter + "_n"] += value

    m["morphisms.table_points_per_s"] = _ratio(m["morphisms.table_points"],
                                               m["morphisms.equal_table_s"])
    m["morphisms.closure_points_per_s"] = _ratio(m["morphisms.closure_points"],
                                                 m["morphisms.equal_closure_s"])
    m["morphisms.refute_scan_ratio"] = _ratio(scan_points, scan_size)
    m["models.derivative_reuse_ratio"] = _ratio(
        m["models.derivative_n"] - m["models.derivative_distinct_n"],
        m["models.derivative_n"])
    return m


_INCLUSIVE = {
    "kernel.axiom_sides": "kernel.sides_s",
    "kernel.check_flatness": "kernel.flatness_s",
    "changeaction.check_change_action": "changeaction.ca_s",
    "changeaction.check_cad_derivative": "changeaction.cad_s",
    "lambda_closed.run_lambda_suite": "lambda_closed.suite_s",
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0
