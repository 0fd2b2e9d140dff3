"""Layer spans and counters for the traced run, taken from outside the program.

The tracer wraps public functions of `fusionrec` modules. A function is
replaced at every place a loaded `fusionrec` module can reach it: module
attributes (`fusionrec.cli.train_cf` as well as `fusionrec.cf.train_cf`) and
default arguments (`score_cot(..., embedder=fallback_embed)`). Methods are
replaced on their class. A target that no longer exists is listed in
`missing`, and the metrics it feeds are left out; the run goes on.

Spans record name, parent, start and end in memory and are written out once,
when the run ends. Times are inclusive; a span's self time is its duration
minus that of its children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        self.span_end[index] = time.perf_counter()
        self._stack.pop()

    def _wrapper(self, name: str, original, count):
        signature = inspect.signature(original) if count is not None else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(index)
            if count is not None and name not in self.missing:
                try:
                    count(self, signature.bind(*args, **kwargs).arguments, result)
                except (AttributeError, KeyError, TypeError):
                    # The arguments or result changed shape: report the layer missing.
                    self.missing.append(name)
            return result

        return traced

    def wrap_function(self, module: str, attr: str, name: str, count=None) -> None:
        """Trace fusionrec.<module>.<attr> wherever the program can reach it.

        `count(tracer, arguments, result)` runs after each call, with the
        arguments bound to their parameter names.
        """
        original = getattr(sys.modules.get(f"fusionrec.{module}"), attr, None)
        if not callable(original):
            self.missing.append(f"{module}.{attr}")
            return
        traced = self._wrapper(name, original, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fusionrec" or mod_name.startswith("fusionrec.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                elif inspect.isfunction(value):
                    _replace_defaults(value, original, traced)
                elif inspect.isclass(value) and value.__module__ == mod_name:
                    for member in vars(value).values():
                        if inspect.isfunction(member):
                            _replace_defaults(member, original, traced)

    def wrap_method(self, module: str, cls: str, attr: str, name: str, count=None) -> None:
        owner = getattr(sys.modules.get(f"fusionrec.{module}"), cls, None)
        original = vars(owner).get(attr) if inspect.isclass(owner) else None
        if not inspect.isfunction(original):
            self.missing.append(f"{module}.{cls}.{attr}")
            return
        setattr(owner, attr, self._wrapper(name, original, count))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        child: defaultdict = defaultdict(float)
        for name_id, parent, start, end in zip(
            self.span_name, self.span_parent, self.span_start, self.span_end
        ):
            calls[name_id] += 1
            total[name_id] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: defaultdict = defaultdict(float)
        for index, name_id in enumerate(self.span_name):
            own[name_id] += self.span_end[index] - self.span_start[index] - child[index]
        return {
            self.names[i]: {"calls": calls[i], "s": total[i], "self_s": own[i]}
            for i in sorted(calls, key=lambda i: self.names[i])
        }

    def seconds_by_root(self, name: str) -> dict[str, tuple[int, float]]:
        """Calls and seconds of spans called `name`, grouped by their root span."""
        name_id = self._name_ids.get(name)
        grouped: dict[str, tuple[int, float]] = {}
        for index, span_name in enumerate(self.span_name):
            if span_name != name_id:
                continue
            root = index
            while self.span_parent[root] >= 0:
                root = self.span_parent[root]
            calls, seconds = grouped.get(self.names[self.span_name[root]], (0, 0.0))
            grouped[self.names[self.span_name[root]]] = (
                calls + 1,
                seconds + self.span_end[index] - self.span_start[index],
            )
        return grouped

    def write(self, path: str, metrics: dict) -> None:
        t0 = self.span_start[0] if self.span_start else 0.0
        payload = {
            "metrics": metrics,
            "missing": self.missing,
            "summary": self.summary(),
            "spans": {
                "names": self.names,
                "name": self.span_name,
                "parent": self.span_parent,
                "start_s": [round(t - t0, 7) for t in self.span_start],
                "end_s": [round(t - t0, 7) for t in self.span_end],
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _replace_defaults(function, original, traced) -> None:
    if function.__defaults__ and any(d is original for d in function.__defaults__):
        function.__defaults__ = tuple(
            traced if d is original else d for d in function.__defaults__
        )
    if function.__kwdefaults__ and any(d is original for d in function.__kwdefaults__.values()):
        function.__kwdefaults__ = {
            k: traced if d is original else d for k, d in function.__kwdefaults__.items()
        }
