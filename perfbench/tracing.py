"""Per-layer measurement from the benchmark's side of the calls.

Spans: selected public functions and methods of each k3auto module are
replaced, in every module that bound them, by a wrapper that records one span
per call (name, start, end, parent span, job id).  Spans stay in memory and are
written out when the run ends.  Counts of the innermost operations (CycloNum
and Fraction arithmetic, saturation attempts, transports) come from a separate
cProfile pass over the same jobs, which keeps wrappers out of the hottest
loops.
"""
from __future__ import annotations

import cProfile
import json
import pstats
import sys
from time import perf_counter

# Span-wrapped callables as (module, attribute path).
SPANNED = (
    ("polyring", "multi_gcd"),
    ("polyring", "gcd_free_basis"),
    ("surface", "classify_all"),
    ("funfield", "verify_morphism"),
    ("funfield", "omega_factor"),
    ("funfield", "map_order"),
    ("funfield", "compose"),
    ("funfield", "normalize"),
    ("funfield", "translation_map"),
    ("rigidity", "enumerate_actions"),
    ("rigidity", "graph_automorphisms"),
    ("rigidity", "_saturate"),
    ("rigidity", "canonical_key"),
    ("rigidity", "GraphAction.census"),
    ("rigidity", "compose_actions"),
    ("lattice", "smith_normal_form"),
    ("lattice", "discriminant_data"),
    ("lattice", "genus_equal"),
    ("files", "load_surface_text"),
    ("files", "load_graph_text"),
    ("parser", "parse_expression"),
    ("cli", "main"),
)

# cProfile counts: metric -> (module, attribute paths) of the counted functions.
PROFILED = {
    "cyclotomic.mul.calls": ("k3auto.cyclotomic", ("CycloNum.__mul__",)),
    "cyclotomic.add.calls": ("k3auto.cyclotomic", ("CycloNum.__add__", "CycloNum.__sub__")),
    "cyclotomic.inverse.calls": ("k3auto.cyclotomic", ("CycloNum.inverse",)),
    "polyring.RationalFunction.new.calls": ("k3auto.polyring", ("RationalFunction.__init__",)),
    "polyring.uni_gcd.calls": ("k3auto.polyring", ("uni_gcd",)),
    "rigidity.saturate.attempts": ("k3auto.rigidity", ("_saturate",)),
    "rigidity.transport.calls": ("k3auto.rigidity", ("_transport",)),
    "lattice.b_of.calls": ("k3auto.lattice", ("DiscriminantGroup.b_of",)),
}

# Fraction arithmetic: every binary operator of Fraction runs through one of
# the shared `forward` / `reverse` wrappers; powers are their own methods.
# cyclotomic.fraction_ops counts the calls made from cyclotomic.py.
FRACTION_OPS = ("forward", "reverse", "__pow__", "__rpow__")

# Spanned functions whose span count must equal their cProfile count: two
# passes over the same jobs must do the same work.
CROSS_CHECKED = (
    "polyring.multi_gcd",
    "funfield.verify_morphism",
    "funfield.compose",
    "rigidity._saturate",
    "lattice.smith_normal_form",
    "parser.parse_expression",
)


def _profile_key(module_name: str, path: str) -> tuple:
    obj = sys.modules[module_name]
    for part in path.split("."):
        obj = getattr(obj, part, None)
    code = getattr(obj, "__code__", None)
    return (code.co_filename, code.co_firstlineno, code.co_name) if code else None


def _total_degree(poly) -> int:
    return max((sum(exps) for exps in poly.terms), default=0)


class Tracer:
    def __init__(self):
        # name, start, end, parent index, job id, outermost of its name, ok,
        # value (input degree of multi_gcd, group size of graph_automorphisms)
        self.spans: list[list] = []
        self.job = None
        # Jobs left out of every summary: a job stopped by its timeout does an
        # amount of work that depends on the clock.
        self.excluded: set = set()
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, active = self.spans, self._stack, self._active

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job,
                    active.get(name, 0) == 0, False, None]
            if name == "polyring.multi_gcd":
                span[7] = max(map(_total_degree, args[:2]))
            stack.append(len(spans))
            spans.append(span)
            active[name] = active.get(name, 0) + 1
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                span[6] = True
                if name == "rigidity.graph_automorphisms":
                    span[7] = len(result)
                return result
            finally:
                span[2] = perf_counter()
                active[name] -= 1
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every SPANNED callable in each k3auto module that binds it."""
        modules = [m for key, m in sys.modules.items() if key.startswith("k3auto.") and m]
        for module_name, path in SPANNED:
            owner = sys.modules[f"k3auto.{module_name}"]
            name = f"{module_name}.{path.split('.')[-1]}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._undo.append((cls, attr, original))
                setattr(cls, attr, self._wrap(f"{module_name}.{attr}", original))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    # -- summaries -----------------------------------------------------------

    def _kept(self, name: str):
        return [s for s in self.spans if s[0] == name and s[4] not in self.excluded]

    def calls(self, name: str) -> int:
        return len(self._kept(name))

    def busy(self, name: str) -> float:
        """Wall time inside `name`, not counting calls nested in itself."""
        return sum(s[2] - s[1] for s in self._kept(name) if s[5])

    def accepted(self, name: str) -> int:
        """Calls of `name` that returned rather than raised."""
        return sum(1 for s in self._kept(name) if s[6])

    def max_value(self, name: str):
        return max((s[7] for s in self._kept(name) if s[7] is not None), default=0)

    def self_times(self) -> dict[str, float]:
        """Span duration minus the time its child spans cover, per name."""
        kept = [s for s in self.spans if s[4] not in self.excluded]
        out: dict[str, float] = {}
        for s in kept:
            out[s[0]] = out.get(s[0], 0.0) + (s[2] - s[1])
        for s in kept:
            if s[3] >= 0:
                out[self.spans[s[3]][0]] -= s[2] - s[1]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "job", "outermost", "ok", "value"],
                    "excluded_jobs": sorted(self.excluded),
                    "spans": self.spans,
                },
                handle,
            )


def _source(filename: str) -> str:
    return "builtins" if filename == "~" else filename.replace("\\", "/").rsplit("/", 1)[-1]


def profile_counts(profiler: cProfile.Profile) -> tuple[dict, dict, dict]:
    """From a profile of the jobs: metric counts, the counts of the
    CROSS_CHECKED functions, and self time per source file."""
    keys = {
        metric: {_profile_key(module, path) for path in paths} - {None}
        for metric, (module, paths) in PROFILED.items()
    }
    cross_keys = {
        name: _profile_key(f"k3auto.{name.split('.')[0]}", name.split(".", 1)[1])
        for name in CROSS_CHECKED
    }
    stats = pstats.Stats(profiler).stats
    counts = {metric: sum(stats[k][1] for k in ks if k in stats) for metric, ks in keys.items()}
    cross = {name: stats[k][1] if k in stats else 0 for name, k in cross_keys.items()}
    file_self: dict[str, float] = {}
    fraction_ops = 0
    for (filename, _line, func), (_cc, _nc, tottime, _ct, callers) in stats.items():
        source = _source(filename)
        file_self[source] = file_self.get(source, 0.0) + tottime
        if source == "fractions.py" and func in FRACTION_OPS:
            fraction_ops += sum(
                edge[0] for caller, edge in callers.items()
                if _source(caller[0]) == "cyclotomic.py"
            )
    counts["cyclotomic.fraction_ops"] = fraction_ops
    counts["cyclotomic.self_s"] = file_self.get("cyclotomic.py", 0.0)
    return counts, cross, file_self
