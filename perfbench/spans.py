"""In-memory spans recorded around the layer functions listed in layers.py.

A span is (name, start, end, parent index, request id, counters).  Spans are
kept in a list while the run lasts and written out when it ends.  A layer's
self time is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from collections import defaultdict
from time import perf_counter

from layers import LAYERS


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request: str = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counters):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counters is not None:
                span[5] = counters(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every site of every layer in the modules imported now."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            for module, path in layer.sites:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(layer.name, original, layer.counters))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, request, counts in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "request": request,
                                    "counts": counts}) + "\n")

    def per_request(self) -> dict[str, dict[str, dict[str, float]]]:
        """request -> layer -> {"self_ms": ..., counter: ...}, summed per request."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _req, _counts in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        table: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
        for i, (name, start, end, _parent, req, counts) in enumerate(self.spans):
            row = table[req][name]
            row["self_ms"] += (end - start - child_s[i]) * 1000.0
            for key, value in (counts or {}).items():
                row[key] += value
        return table


def layer_metrics(table: dict, requests: list[str],
                  setups: list[str]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics over the traced requests, and the layers seen only at set-up.

    self_ms and "median" counters are per-request sums, medianed over the
    requests (a request that never entered the layer counts 0).  A layer that
    ran only at set-up is medianed over the set-ups instead.  Ratios are
    summed over the requests (or set-ups) before dividing; 0 when the layer
    never ran.
    """
    out: dict[str, float] = {}
    setup_only = []
    for layer in LAYERS:
        units = requests
        if not any(layer.name in table.get(r, {}) for r in requests):
            units = setups
            if any(layer.name in table.get(s, {}) for s in setups):
                setup_only.append(layer.name)
        rows = [table.get(u, {}).get(layer.name, {}) for u in units]

        def median(key: str) -> float:
            return statistics.median([row.get(key, 0.0) for row in rows]) if rows else 0.0

        out[f"{layer.name}.self_ms"] = median("self_ms")
        for suffix, (_unit, how) in layer.metrics.items():
            if how == "median":
                out[f"{layer.name}.{suffix}"] = median(suffix)
                continue
            num, den = how.split(":", 1)[1].split("/")
            total_den = sum(row.get(den, 0.0) for row in rows)
            total_num = sum(row.get(num, 0.0) for row in rows)
            out[f"{layer.name}.{suffix}"] = total_num / total_den if total_den else 0.0
    return out, setup_only
