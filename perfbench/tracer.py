"""An outside tracer for the calculator: it wraps public functions and
methods from here, so the package itself is not changed.

Each wrapped function is rebound in every ``orient_duality`` module that
holds it by name, and on its class for methods.  Calls into ``fgl``,
``spaces``, ``gysin``, ``homodual``, ``verify`` and ``cli`` record an
in-memory span (id, name, start, end, parent span, operation id).
``RingElem`` arithmetic runs hundreds of thousands of times per second,
so ``algebra`` calls only add to per-name counts and self time.

Self time is a call's duration minus the time of the traced calls made
inside it, so the self times of all names add up to the time spent in
the outermost traced calls.
"""

import gzip
import json
import sys
import weakref
from time import perf_counter

PACKAGE = "orient_duality"


class Tracer:
    def __init__(self):
        # frames: [time in traced children, span id of the enclosing span]
        self.stack = [[0.0, None]]
        self.spans = []
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.distinct = {}  # name -> set of argument keys
        self.op = None
        self._next_id = 0
        self._laws = weakref.WeakKeyDictionary()
        self._law_count = 0
        self._depth = {}  # name -> [open calls], shared by aliases

    # -- wrappers ------------------------------------------------------------

    def _stat(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def aggregate(self, name, fn):
        """Counts and self time only, for very frequent calls."""
        st = self._stat(name)
        stack = self.stack

        def wrapper(*args, **kwargs):
            frame = [0.0, stack[-1][1]]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                stack.pop()
                st[0] += 1
                st[2] += d - frame[0]
                stack[-1][0] += d

        return wrapper

    def span(self, name, fn, key=None):
        """A span per call; ``key(args, kwargs)`` feeds the distinct count.

        ``total_s`` counts only the outermost of nested calls of one name,
        so recursion is not counted twice.
        """
        st = self._stat(name)
        seen = self.distinct.setdefault(name, set()) if key else None
        stack = self.stack
        spans = self.spans
        depth = self._depth.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][1]
            if seen is not None:
                seen.add(key(args, kwargs))
            frame = [0.0, sid]
            stack.append(frame)
            depth[0] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                d = t1 - t0
                stack.pop()
                depth[0] -= 1
                st[0] += 1
                st[2] += d - frame[0]
                if depth[0] == 0:
                    st[1] += d
                stack[-1][0] += d
                spans.append((sid, name, t0, t1, parent, self.op))

        return wrapper

    def check_span(self, name, cid, fn):
        """A verification check: its span and everything inside it belong
        to the (check, theory, space) cell."""
        inner = self.span(name, fn)

        def wrapper(ctx):
            outer = self.op
            self.op = "%s|%s|%s" % (cid, ctx.kind.value, ctx.space.render())
            try:
                return inner(ctx)
            finally:
                self.op = outer

        return wrapper

    def law_key(self, law):
        serial = self._laws.get(law)
        if serial is None:
            self._law_count += 1
            serial = self._laws[law] = self._law_count
        return serial

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap the traced functions and methods of the loaded package."""
        from orient_duality import algebra, cli, fgl, gysin, homodual, spaces, verify

        law_m = lambda a, k: (self.law_key(a[0]), a[1])  # noqa: E731
        law_only = lambda a, k: (self.law_key(a[0]),)  # noqa: E731
        space_law = lambda a, k: (self.law_key(a[1]), a[0])  # noqa: E731

        methods = [
            (algebra.RingElem, ("__mul__", "__rmul__", "__pow__"), "algebra.mul", "agg", None),
            (algebra.RingElem, ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__"), "algebra.add", "agg", None),
            (algebra.CoeffRing, ("parse",), "algebra.parse", "agg", None),
            (algebra.RingKind, ("parse",), "algebra.parse", "agg", None),
            (fgl.Series, ("compose", "eval_nilpotent"), "fgl.series.compose", "span", None),
            (fgl.Series, ("reversion",), "fgl.series.reversion", "span", None),
            (fgl.FGL, ("m_series",), "fgl.m_series", "span", law_m),
            (fgl.FGL, ("inverse",), "fgl.inverse", "span", law_only),
            (fgl.FGL, ("log",), "fgl.log", "span", None),
            (spaces.CohClass, ("__mul__", "__rmul__", "__pow__"), "spaces.coh_mul", "span", None),
        ]
        for shape in (spaces.Projection, spaces.LinearEmbed, spaces.Diagonal, spaces.Permutation, spaces.Composite):
            methods.append((shape, ("pullback",), "spaces.pullback", "span", None))
        functions = [
            (fgl, "additive_law", "fgl.law_build", None),
            (fgl, "multiplicative_law", "fgl.law_build", None),
            (fgl, "universal_law", "fgl.law_build", None),
            (fgl, "_series_on_nilpoly", "fgl.series.compose", None),
            (fgl, "check_axioms", "fgl.check_axioms", None),
            (fgl, "apply_law", "fgl.apply_law", None),
            (spaces, "euler", "spaces.euler", None),
            (gysin, "kernel", "gysin.kernel", None),
            (gysin, "pushforward_coh", "gysin.pushforward_coh", None),
            (gysin, "diagonal_kernel_class", "gysin.diagonal_kernel_class", space_law),
            (homodual, "cap", "homodual.cap", None),
            (homodual, "slant_l", "homodual.slant_l", None),
            (homodual, "pushforward_hom", "homodual.pushforward_hom", None),
            (homodual, "shriek_hom", "homodual.shriek_hom", None),
            (homodual, "fundamental_class", "homodual.fundamental_class", space_law),
            (homodual, "duality_to_hom", "homodual.duality_to_hom", None),
            (homodual, "duality_to_coh", "homodual.duality_to_coh", None),
            (verify, "run_suite", "verify.run_suite", None),
            (verify, "reports_to_json", "verify.report", None),
            (verify, "reports_to_table", "verify.report", None),
            (cli, "main", "cli.main", None),
        ]

        replaced = {}
        for cls, attrs, name, kind, key in methods:
            for attr in attrs:
                raw = cls.__dict__[attr]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                w = self.aggregate(name, fn) if kind == "agg" else self.span(name, fn, key)
                setattr(cls, attr, staticmethod(w) if isinstance(raw, staticmethod) else w)
        for module, attr, name, key in functions:
            fn = getattr(module, attr)
            replaced[id(fn)] = (fn, self.span(name, fn, key))
        checks = []
        for cid, fn in verify.CHECKS:
            number = cid.split("-")[0]
            checks.append((cid, self.check_span("verify.%s" % number, cid, fn)))
        verify.CHECKS = tuple(checks)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                fn, w = replaced.get(id(value), (None, None))
                if fn is value:
                    setattr(module, attr, w)

    # -- results -------------------------------------------------------------

    def layer_metrics(self, rounds):
        """Per-round figures by traced name, plus per-module self time."""
        out = {}
        modules = {}
        for name, (calls, total, self_s) in self.stats.items():
            out[name + ".calls"] = calls / rounds
            out[name + ".total_s"] = total / rounds
            out[name + ".self_s"] = self_s / rounds
            if name in self.distinct:
                out[name + ".distinct_per_call"] = len(self.distinct[name]) / calls if calls else 0.0
            module = name.split(".")[0]
            modules[module] = modules.get(module, 0.0) + self_s / rounds
        for module, s in modules.items():
            out[module + ".self_s"] = s
        return out

    def write_spans(self, path):
        with gzip.open(path, "wt") as fh:
            for sid, name, t0, t1, parent, op in sorted(self.spans):
                fh.write(json.dumps([sid, name, t0, t1, parent, op]) + "\n")
