"""In-memory span tracer that wraps measengine's public functions from outside.

The package imports its helpers by name (`from .linalg import matmul`), so
wrapping `linalg.matmul` alone would miss the calls made from `channels`.
`Tracer.install` therefore replaces every reference to an original function
in every module namespace of the package, and wraps the `__post_init__` of
the package's dataclasses (construction-time validation of `DensityMatrix`,
`KrausSet`, ...).  `Tracer.uninstall` puts every original back.

Each span records a name, a start, an end and the index of its parent span.
Spans live in flat arrays while the run lasts and are written out once at
the end.  A module's self time is the sum over its spans of the span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

MODULES = ("linalg", "states", "channels", "engine", "sweep", "verify", "cli", "config")

# The engine's mode-specific runners are reported under the names of the
# dispatchers they serve, one span name per mode.
SPAN_ALIASES = {
    "engine.run_three_stroke_numeric": "engine.run_numeric.three",
    "engine.run_five_stroke_numeric": "engine.run_numeric.five",
    "engine.analytic_three_stroke": "engine.run_analytic.three",
    "engine.analytic_five_stroke": "engine.run_analytic.five",
}


def _modules(package):
    return [importlib.import_module(f"{package.__name__}.{short}") for short in MODULES]


def _traceable(package):
    """Yield (owner, attribute, original, span name) for every wrapped callable."""
    for module in _modules(package):
        short = module.__name__.rsplit(".", 1)[1]
        for attr, obj in sorted(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                name = f"{short}.{attr}"
                yield module, attr, obj, SPAN_ALIASES.get(name, name)
            elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                yield obj, "__post_init__", vars(obj)["__post_init__"], f"{short}.{attr}"


class Tracer:
    """Records nested spans of wrapped calls on one thread."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        """Return `fn` wrapped so that each call records one span."""
        nid = self._intern(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        return traced

    def install(self, package) -> None:
        """Patch every namespace of `package` that refers to a traceable callable."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for owner, attr, original, name in _traceable(package):
            wrapper = self.wrap(original, name)
            wrappers[id(original)] = wrapper
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        namespaces = [package] + _modules(package)
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and getattr(module, attr) is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def counts(self) -> dict[str, int]:
        """Number of spans recorded per span name."""
        tally = [0] * len(self.names)
        for nid in self.name_id:
            tally[nid] += 1
        return {name: tally[i] for i, name in enumerate(self.names)}

    def self_seconds_by_module(self) -> dict[str, float]:
        """Self time per module: span durations minus their direct children's."""
        import numpy as np

        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - child_time
        module_of_name = [name.split(".", 1)[0] for name in self.names]
        modules = sorted(set(module_of_name))
        module_ids = np.array([modules.index(m) for m in module_of_name], dtype=np.int64)
        by_module = np.bincount(
            module_ids[np.frombuffer(self.name_id, dtype=np.int32)],
            weights=self_time, minlength=len(modules),
        )
        return {m: float(by_module[i]) for i, m in enumerate(modules)}

    def save(self, path) -> None:
        """Write every span (name, start, end, parent) as a compressed .npz file."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
