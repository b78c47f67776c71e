"""Span tracer for the per-layer run.

The tracer wraps the public functions and methods of each famcat layer from
outside the package and replaces every name under which callers look them
up: the defining module, every module that bound the function with
``from ... import``, and, for ``NSet``, the operator aliases (``&``, ``|``,
``-``, ``<=``, ``~``) that the class binds apart from the named methods.

Each wrapped call is a span.  The wrapper keeps a stack of open spans and, on
exit, charges the span's duration minus the time of its child spans to the
span's own name (its self time) and adds the whole duration to the parent's
child time.  Call counts and self times are aggregated per name as the run
goes.  Calls into ``nset``, ``kernel`` and ``vobj`` number in the millions
per pass, so only spans of the coarse layers (``harness``, ``univalence``,
``cli``) are kept as ``(id, name, start, end, parent)`` records; the
aggregates of the fine layers are complete.

Property reads (``NSet.is_finite``), ``__eq__``/``__hash__`` and the private
helpers are not wrapped: their time is charged to the wrapped caller.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict
from types import ModuleType

RECORDED_LAYERS = ("harness", "univalence", "cli")

# NSet is the nset layer's whole API, so its methods are named without the
# class.  Aliases share one function object, so ``&`` and ``intersect`` count
# as one name.
NSET_METHODS = (
    "__init__", "__contains__", "__invert__", "__and__", "__or__", "__sub__",
    "__le__", "complement", "intersect", "union", "difference", "is_subset",
    "smallest", "first_elements", "drop_least", "cardinality", "to_json_dict",
    "fin", "cofin", "from_json_dict",
)
# Private helpers that stand for a unit of work the metrics name.
PRIVATE_FUNCTIONS = {"harness": ("_draw_object",)}
# Spans whose outermost occurrence is summed into an inclusive total.
INCLUSIVE = {
    "harness.enumerate_objects": "draw",
    "harness.sample_objects": "draw",
    "harness._draw_object": "draw",
}


class Tracer:
    """Wraps the famcat layers while installed; aggregates spans per name."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.inclusive_s: defaultdict[str, float] = defaultdict(float)
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.normalize_in = 0
        self.normalize_out = 0
        self._stack: list[list] = []
        self._recorded: list[int] = []
        self._inclusive_depth: Counter[str] = Counter()
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter
        record = name.split(".", 1)[0] in RECORDED_LAYERS
        inclusive = INCLUSIVE.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if record:
                sid = self._next_id
                self._next_id += 1
                parent = self._recorded[-1] if self._recorded else None
                self._recorded.append(sid)
            if inclusive:
                self._inclusive_depth[inclusive] += 1
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                calls[name] += 1
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if inclusive:
                    self._inclusive_depth[inclusive] -= 1
                    if not self._inclusive_depth[inclusive]:
                        self.inclusive_s[inclusive] += duration
                if record:
                    self._recorded.pop()
                    self.spans.append((sid, name, frame[0], end, parent))

        return span

    def _wrap_normalize(self, name: str, fn, empty):
        """``normalize`` also counts members offered and members kept.

        The empty set that normalization adds is not counted as kept, so
        the ratio is 1 exactly when no offered member was a duplicate or
        dominated: the share of built members that was not wasted.
        """

        def counted(members):
            members = tuple(members)
            out = fn(members)
            self.normalize_in += len(members)
            self.normalize_out += len(out) - (empty not in members)
            return out

        return self._wrap(name, functools.wraps(fn)(counted))

    # -- installation --------------------------------------------------------

    def install(self, modules: dict[str, ModuleType], everywhere: list[ModuleType]) -> None:
        """Wrap each layer in ``modules`` and rebind it in every module of ``everywhere``."""
        originals: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if layer == "nset" or inspect.isgeneratorfunction(obj):
                    continue  # nset's module functions only delegate to methods
                if attr.startswith("_") and attr not in PRIVATE_FUNCTIONS.get(layer, ()):
                    continue
                name = f"{layer}.{attr}"
                if name == "kernel.normalize":
                    originals[id(obj)] = self._wrap_normalize(name, obj, mod.EMPTY)
                else:
                    originals[id(obj)] = self._wrap(name, obj)
            for cls in vars(mod).values():
                if inspect.isclass(cls) and cls.__module__ == mod.__name__:
                    self._install_class(layer, cls)
        for mod in everywhere:
            for attr, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def _install_class(self, layer: str, cls: type) -> None:
        is_nset = layer == "nset" and cls.__name__ == "NSet"
        wrapped: dict[int, object] = {}
        for attr, raw in list(vars(cls).items()):
            if is_nset:
                keep = attr in NSET_METHODS
            else:  # public methods, and the construction of canonical objects
                keep = not attr.startswith("_") or (cls.__name__, attr) == ("Obj", "__init__")
            if not keep:
                continue
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if not inspect.isfunction(fn):
                continue  # properties and nested classes stay as they are
            if id(fn) not in wrapped:
                meth = "construct" if attr == "__init__" else fn.__name__
                prefix = layer if is_nset else f"{layer}.{cls.__name__}"
                wrapped[id(fn)] = self._wrap(f"{prefix}.{meth}", fn)
            new = wrapped[id(fn)]
            if isinstance(raw, classmethod):
                new = classmethod(new)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def span_records(self) -> list[dict[str, object]]:
        return [
            {"id": sid, "name": name, "start": start, "end": end, "parent": parent}
            for sid, name, start, end, parent in self.spans
        ]
