"""Outside-in tracing of orthopath's layers.

The layers are the modules of ``src/orthopath``.  A :class:`Tracer`
wraps the public functions and methods of each module that the
benchmark's workloads reach (the merge, paving and involution machinery
of the proofs is not run by any workload) and rebinds every
name that refers to them in every orthopath module, so calls made
through ``from``-imports (``cli`` calling ``path_sum_monic``,
``positivity`` calling ``path_weight_mixed``) are seen too.  Nothing in
the library changes; ``uninstall`` puts the originals back.

Each wrapped call is either a *span* (name, start, end, parent span)
kept in memory, or, for functions called hundreds of thousands of times
per pass, only *counted*.  Both kinds feed the same call stack, so a
layer's self time is its calls' duration minus the time of the wrapped
calls nested inside them, whichever kind those are.  A call *enters* a
layer when the innermost wrapped call around it belongs to another layer
(or there is none); ``entries`` counts those.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# (module, owner class or None, attribute names, layer, counted)
# Counted targets record no span: they are the hot per-path, per-lookup
# and per-scalar calls.  The one-line ``CoefficientSystem.alpha_at`` /
# ``beta_at`` / ``gamma_at`` accessors are left unwrapped, which halves the
# wrapping cost of a lookup; the ``at`` call inside them is counted.
TARGETS = (
    ("cli", None, ("main",), "cli", False),
    ("oracle", None, (
        "connection_expand", "expand_product", "mixed_expand",
        "mixed_product_value", "moments", "triple_product_value",
    ), "oracle", False),
    ("oracle", None, ("multiply_by_x",), "oracle", True),
    ("weights", None, (
        "path_sum_monic", "path_sum_mixed", "strict_monic_weight_sum",
        "monic_prefactor", "mixed_prefactor",
    ), "weights.enum", False),
    ("weights", None, (
        "path_weight_monic", "path_weight_mixed", "path_weight_merged",
    ), "weights.enum", True),
    ("weights", None, ("dp_sum",), "weights.dp", False),
    ("paths", None, ("enumerate_paths",), "paths", False),
    ("paths", "MotzkinPath", (
        "__post_init__", "vertices", "edges", "is_standard",
        "is_boundary_valid", "__str__",
    ), "paths", True),
    ("positivity", None, (
        "check_monic_monotone", "check_dominance", "check_parity_dominance",
        "certify_monic", "certify_mixed",
    ), "positivity", False),
    ("positivity", None, ("required_window",), "positivity", True),
    ("systems", None, (
        "load_system", "system_from_json", "monic_b_lambda", "monic_system",
    ), "systems", False),
    ("systems", "CoefficientSystem", ("require_range", "is_monic"), "systems", False),
    ("systems", "CoefficientSystem", ("norm_squared",), "systems", True),
    *(
        ("systems", cls, ("at",), "systems", True)
        for cls in ("ExplicitSeq", "AffineSeq", "ConstantSeq", "SymbolicSeq", "ShiftedSeq")
    ),
    ("scalars", "Poly", (
        "__init__", "__add__", "__neg__", "__sub__", "__rsub__", "__mul__",
        "__rmul__", "__pow__", "__eq__",
    ), "scalars.poly", True),
    ("scalars", None, ("format_scalar",), "scalars.format", True),
)

MODULES = ("scalars", "systems", "paths", "weights", "oracle", "positivity", "cli")
Span = Tuple[str, float, float, int]


class Tracer:
    """Spans, call counts and self times for one traced pass."""

    def __init__(self, package) -> None:
        self.package = package
        self.spans: List[Optional[Span]] = []
        self.calls: Counter = Counter()       # qualified name -> calls
        self.entries: Counter = Counter()     # layer -> calls entering it
        self.self_s: Dict[str, float] = defaultdict(float)
        self.paths_enumerated = 0
        self.cert_rows = 0
        self.vector_terms = 0
        self.poly_terms_max = 0
        self._stack: List[list] = []          # [child seconds, layer]
        self._open_span = -1
        self._restore: List[Tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind it at every import site."""
        pkg = self.package
        modules = [getattr(pkg, name) for name in MODULES]
        wrapped: Dict[int, Callable] = {}
        for mod_name, cls_name, attrs, layer, counted in TARGETS:
            owner = getattr(pkg, mod_name)
            if cls_name:
                owner = getattr(owner, cls_name)
            for attr in attrs:
                original = vars(owner)[attr]
                qual = f"{mod_name}.{cls_name + '.' if cls_name else ''}{attr}"
                if id(original) not in wrapped:
                    wrapped[id(original)] = self._wrap(original, qual, layer, counted)
                if cls_name:
                    self._set(owner, attr, wrapped[id(original)])
        # module-level names: the defining module, the package namespace and
        # every module that imported the function by name
        for mod in [pkg, *modules]:
            for attr, value in list(vars(mod).items()):
                if callable(value) and id(value) in wrapped:
                    self._set(mod, attr, wrapped[id(value)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    # -- the wrapper ----------------------------------------------------------

    def _wrap(self, fn: Callable, qual: str, layer: str, counted: bool) -> Callable:
        stack = self._stack
        spans = self.spans
        calls = self.calls
        entries = self.entries
        self_s = self.self_s
        clock = time.perf_counter
        observe = self._observer(qual)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack or stack[-1][1] != layer:
                entries[layer] += 1
            frame = [0.0, layer]
            stack.append(frame)
            if not counted:
                sid = len(spans)
                spans.append(None)
                parent, self._open_span = self._open_span, sid
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                self_s[layer] += took - frame[0]
                if stack:
                    stack[-1][0] += took
                calls[qual] += 1
                if not counted:
                    spans[sid] = (qual, start, end, parent)
                    self._open_span = parent
            if observe:
                observe(result)
            return result

        return wrapper

    def _observer(self, qual: str) -> Optional[Callable]:
        """Work counters read off a call's result."""
        if qual == "paths.enumerate_paths":
            def observe(found):
                self.paths_enumerated += len(found)
        elif qual.startswith("positivity.certify_"):
            def observe(cert):
                self.cert_rows += len(cert.rows)
        elif qual in ("oracle.expand_product", "oracle.mixed_expand"):
            def observe(table):
                self.vector_terms += len(table.entries)
        elif qual in ("oracle.connection_expand", "oracle.multiply_by_x"):
            def observe(vec):
                self.vector_terms += len(vec)
        elif qual.startswith("scalars.Poly.") and qual != "scalars.Poly.__init__":
            def observe(poly):
                terms = getattr(poly, "_terms", None)
                if terms is not None and len(terms) > self.poly_terms_max:
                    self.poly_terms_max = len(terms)
        else:
            return None
        return observe

    # -- results ----------------------------------------------------------------

    def calls_matching(self, prefix: str) -> int:
        return sum(n for name, n in self.calls.items() if name.startswith(prefix))

    def span_records(self) -> List[dict]:
        """Spans in call order; ``parent`` is the index of the enclosing
        span, -1 at the top."""
        return [
            {"id": sid, "name": name, "start": start, "end": end, "parent": parent}
            for sid, (name, start, end, parent) in enumerate(self.spans)
        ]
