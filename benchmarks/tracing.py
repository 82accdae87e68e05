"""Outside-in tracing of jspec's layers, for the per-layer metrics.

The tracer wraps chosen public functions and methods of the jspec modules in
place; no jspec source changes.  Each wrapped call records a span (id,
parent, item, name, start, end) kept in memory.  A span's self time is its
duration minus the time of its child spans.  Scalar operations in K are far
too many to keep as spans, so they are aggregated as call counts plus the
total time of the outermost scalar call; that time counts as child time of
the enclosing span.

Several names are imported by name or bound twice (``from jspec.spectrum
import pencil_poly`` in verify and cli, ``squarefree_part`` in spectrum,
``gcd`` recursing through its module global, ``FieldElem.__radd__ =
__add__``).  Wrapping only the defining attribute would miss those calls,
so ``install`` replaces every reference in every jspec module namespace and
class dictionary, and refuses to run if a reference survives anywhere it
can see.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter
from types import ModuleType

# (span name, module, attribute path) for each traced boundary.
BOUNDARIES = (
    ("cli.main", "jspec.cli", "main"),
    ("verify.suite", "jspec.verify", "check_pair_equivalences"),
    ("verify.suite", "jspec.verify", "find_spectrum_witness"),
    ("verify.gen", "jspec.verify", "random_projection"),
    ("maps.apply", "jspec.maps", "UnitaryConjMap.apply"),
    ("maps.apply", "jspec.maps", "AntiUnitaryConjMap.apply"),
    ("maps.apply", "jspec.maps", "InducedMap.apply"),
    ("lattice.validate", "jspec.lattice", "Projection.__init__"),
    ("lattice.join", "jspec.lattice", "Projection.join"),
    ("lattice.meet", "jspec.lattice", "Projection.meet"),
    ("spectrum.pencil", "jspec.spectrum", "pencil_poly"),
    ("spectrum.zero_set", "jspec.spectrum", "zero_set_subset"),
    ("polyalg.mul", "jspec.polyalg", "MultiPoly.__mul__"),
    ("polyalg.gcd", "jspec.polyalg", "gcd"),
    ("polyalg.divide", "jspec.polyalg", "exact_quotient"),
    ("polyalg.squarefree", "jspec.polyalg", "squarefree_part"),
    ("exactla.rref", "jspec.exactla", "Matrix.rref"),
    ("exactla.matmul", "jspec.exactla", "Matrix.__mul__"),
    ("exactla.projection_onto", "jspec.exactla", "projection_onto"),
)

# FieldElem operations timed as scalar work; those with a name are counted.
# Nested calls (subtraction adds, inversion multiplies) count but are not
# timed twice.
SCALAR_OPS = {
    "__add__": "scalar.add", "__radd__": "scalar.add",
    "__mul__": "scalar.mul", "__rmul__": "scalar.mul",
    "inv": "scalar.inv",
    "__sub__": None, "__rsub__": None, "__neg__": None, "conj": None,
    "__truediv__": None, "__rtruediv__": None, "__pow__": None,
}

ITEM_SPAN = "bench.item"


class TraceError(RuntimeError):
    """The trace cannot be trusted: a boundary was missed or never reached."""


class Tracer:
    """Spans and counters for one traced run; install, run items, uninstall."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.scalar_s = 0.0
        self.sf_reduced = 0
        self.item = None
        self._stack: list[list] = []  # open spans: [id, child time]
        self._depth: Counter = Counter()  # open spans per name
        self._next_id = 0
        self._in_scalar = False
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            outermost = not tracer._depth[name]
            tracer._depth[name] += 1
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._depth[name] -= 1
                if stack:
                    stack[-1][1] += end - start
                tracer.spans.append((frame[0], parent, tracer.item, name,
                                     start, end, end - start - frame[1],
                                     outermost))
            if name == "polyalg.squarefree" and \
                    result.total_degree() < args[0].total_degree():
                tracer.sf_reduced += 1
            return result

        return wrapper

    def _scalar(self, counter, fn):
        tracer = self
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args):
            start = perf_counter()
            if counter is not None:
                calls[counter] += 1
            if tracer._in_scalar:
                return fn(*args)
            tracer._in_scalar = True
            try:
                return fn(*args)
            finally:
                tracer._in_scalar = False
                elapsed = perf_counter() - start
                tracer.scalar_s += elapsed
                if tracer._stack:
                    tracer._stack[-1][1] += elapsed

        return wrapper

    def run_item(self, item, fn, *args):
        """Call fn as the root span of one benchmark item."""
        self.item = item
        try:
            return self._span(ITEM_SPAN, fn)(*args)
        finally:
            self.item = None

    # -- installation -----------------------------------------------------------

    def install(self, modules: dict[str, ModuleType]) -> None:
        """Wrap every boundary, rebinding all references the modules hold."""
        wrappers: dict[int, object] = {}
        originals: dict[int, object] = {}
        for name, modname, path in BOUNDARIES:
            owner_name, _, attr = path.rpartition(".")
            owner = modules[modname]
            if owner_name:
                owner = getattr(owner, owner_name)
            if attr not in vars(owner):
                raise TraceError(f"boundary {modname}.{path} does not exist")
            fn = vars(owner)[attr]
            originals[id(fn)] = fn
            wrappers[id(fn)] = self._span(name, fn)
        field_elem = modules["jspec.scalar"].FieldElem
        for attr, counter in SCALAR_OPS.items():
            fn = vars(field_elem)[attr]
            if id(fn) not in wrappers:  # __radd__ is __add__, and so on
                originals[id(fn)] = fn
                wrappers[id(fn)] = self._scalar(counter, fn)
        rebound = Counter()
        for ns_owner in _namespaces(modules):
            for attr, value in list(vars(ns_owner).items()):
                if id(value) in wrappers and value is originals[id(value)]:
                    setattr(ns_owner, attr, wrappers[id(value)])
                    self._undo.append((ns_owner, attr, value))
                    rebound[id(value)] += 1
        for key, fn in originals.items():
            if not rebound[key]:
                raise TraceError(f"no reference to {fn.__qualname__} rebound")
        _check_no_survivors(modules, originals)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results ------------------------------------------------------------------

    def require_calls(self, names) -> None:
        missing = [name for name in names if not self.calls[name]]
        if missing:
            raise TraceError(
                "traced run saw zero calls at boundaries this workload uses: "
                + ", ".join(missing))

    def layer_metrics(self, items: int) -> dict[str, tuple[float, str]]:
        """Per-item per-layer figures over the traced items."""
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        for _, _, _, name, start, end, own, outermost in self.spans:
            self_s[name] += own
            if outermost:
                total_s[name] += end - start
        calls, per = self.calls, float(items)

        def count(name):
            return calls[name] / per, "count/item"

        def seconds(value):
            return value / per, "s/item"

        squarefree = calls["polyalg.squarefree"]
        return {
            "scalar.mul_calls": count("scalar.mul"),
            "scalar.add_calls": count("scalar.add"),
            "scalar.inv_calls": count("scalar.inv"),
            "scalar.self_s": seconds(self.scalar_s),
            "exactla.rref_calls": count("exactla.rref"),
            "exactla.rref_self_s": seconds(self_s["exactla.rref"]),
            "exactla.matmul_calls": count("exactla.matmul"),
            "exactla.matmul_self_s": seconds(self_s["exactla.matmul"]),
            "exactla.projection_onto_calls": count("exactla.projection_onto"),
            "exactla.projection_onto_s":
                seconds(total_s["exactla.projection_onto"]),
            "lattice.validate_calls": count("lattice.validate"),
            "lattice.validate_self_s": seconds(self_s["lattice.validate"]),
            "lattice.join_calls": count("lattice.join"),
            "lattice.join_s": seconds(total_s["lattice.join"]),
            "lattice.meet_calls": count("lattice.meet"),
            "lattice.meet_s": seconds(total_s["lattice.meet"]),
            "maps.apply_calls": count("maps.apply"),
            "maps.apply_s": seconds(total_s["maps.apply"]),
            "spectrum.pencil_calls": count("spectrum.pencil"),
            "spectrum.pencil_self_s": seconds(self_s["spectrum.pencil"]),
            "spectrum.zero_set_calls": count("spectrum.zero_set"),
            "spectrum.zero_set_s": seconds(total_s["spectrum.zero_set"]),
            "polyalg.mul_calls": count("polyalg.mul"),
            "polyalg.mul_self_s": seconds(self_s["polyalg.mul"]),
            "polyalg.gcd_calls": count("polyalg.gcd"),
            "polyalg.gcd_s": seconds(total_s["polyalg.gcd"]),
            "polyalg.divide_calls": count("polyalg.divide"),
            "polyalg.divide_s": seconds(total_s["polyalg.divide"]),
            "polyalg.squarefree_calls": count("polyalg.squarefree"),
            "polyalg.squarefree_s": seconds(total_s["polyalg.squarefree"]),
            "polyalg.sf_reduced_ratio":
                (self.sf_reduced / squarefree if squarefree else 0.0, "ratio"),
            "verify.gen_calls": count("verify.gen"),
            "verify.gen_s": seconds(total_s["verify.gen"]),
            "verify.suite_self_s": seconds(self_s["verify.suite"]),
            "cli.self_s": seconds(self_s["cli.main"]),
        }

    def write_spans(self, path: str) -> None:
        """One JSON array per span: id, parent, item, name, start, end."""
        origin = min((span[4] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, item, name, start, end, _, _ in self.spans:
                handle.write(json.dumps(
                    [span_id, parent, item, name,
                     round(start - origin, 7), round(end - origin, 7)]))
                handle.write("\n")


def _namespaces(modules: dict[str, ModuleType]):
    """Every jspec module and every class those modules define."""
    for module in modules.values():
        yield module
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ in modules:
                yield value


def _check_no_survivors(modules, originals) -> None:
    """Fail if any namespace, or a container in one, still holds an original."""
    for owner in _namespaces(modules):
        for attr, value in vars(owner).items():
            inner = value.values() if isinstance(value, dict) else (
                value if isinstance(value, (tuple, list, set, frozenset))
                else (value,))
            for item in inner:
                if id(item) in originals and originals[id(item)] is item:
                    raise TraceError(
                        f"{getattr(owner, '__name__', owner)}.{attr} still "
                        f"refers to unwrapped {item.__qualname__}")
