"""Spans around cpwall's public functions, for the traced run.

Each traced function is wrapped in every cpwall module that binds it
(for example ``cpwall.thermal.scaled_e1`` and
``cpwall.cli.thermal_quadrature``), so calls are seen whichever module
makes them, without touching a source file.  A span records name,
start, end and parent; spans are kept in flat in-memory arrays and
written out when the run ends.  A layer's self time is its spans'
duration minus the time their child spans cover.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

# span name, defining module, functions, result attribute summed as a count
LAYERS = (
    ("specfun.scaled_e1", "cpwall.specfun", ("scaled_e1",), None),
    ("specfun.aux_fg", "cpwall.specfun", ("auxiliary_f", "auxiliary_g"), None),
    ("specfun.bose_sum_p", "cpwall.specfun", ("bose_sum_p",), None),
    ("vacuum.potential", "cpwall.vacuum", ("vacuum_potential",), None),
    ("thermal.series_terms", "cpwall.thermal", ("thermal_series_terms",), "terms_used"),
    ("thermal.total", "cpwall.thermal", ("total_potential",), None),
    ("oracle.vacuum", "cpwall.oracle", ("vacuum_split_quadrature",), "subdivisions"),
    (
        "oracle.thermal",
        "cpwall.oracle",
        ("thermal_quadrature", "thermal_quadrature_static"),
        "subdivisions",
    ),
    ("analysis.equilibrium", "cpwall.analysis", ("find_thermal_equilibrium",), "iterations"),
    ("analysis.crossover", "cpwall.analysis", ("dominance_crossover",), None),
    ("analysis.fit", "cpwall.analysis", ("quadratic_fit",), None),
    ("analysis.regime_table", "cpwall.analysis", ("regime_error_table",), None),
    ("cli.curve", "cpwall.cli", ("cmd_curve",), None),
    ("cli.verify", "cpwall.cli", ("run_verification",), None),
    ("cli.analyze", "cpwall.cli", ("cmd_analyze",), None),
)


class Tracer:
    """Context manager that wraps the LAYERS functions while active."""

    def __init__(self) -> None:
        self.layer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.count = array("q")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, ix: int, fn, counter: str | None):
        layer, start, end, parent, count = (
            self.layer, self.start, self.end, self.parent, self.count
        )
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(start)
            layer.append(ix)
            parent.append(stack[-1])
            end.append(0.0)
            count.append(0)
            stack.append(i)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if counter is not None:
                count[i] = getattr(out, counter)
            return out

        return traced

    def __enter__(self) -> "Tracer":
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "cpwall" or name.startswith("cpwall."))
        ]
        for ix, (_, module_name, functions, counter) in enumerate(LAYERS):
            home = importlib.import_module(module_name)
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(ix, original, counter)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, summed count and self time in seconds."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        stats = {name: {"calls": 0, "count": 0, "self_s": 0.0} for name, *_ in LAYERS}
        for i, ix in enumerate(self.layer):
            s = stats[LAYERS[ix][0]]
            s["calls"] += 1
            s["count"] += self.count[i]
            s["self_s"] += self.end[i] - self.start[i] - child[i]
        return stats

    def dump(self, path: Path) -> None:
        """Write every span as [layer, start, end, parent, count]."""
        t0 = self.start[0] if self.start else 0.0
        payload = {
            "layers": [name for name, *_ in LAYERS],
            "fields": ["layer", "start_s", "end_s", "parent", "count"],
            "spans": [
                [ix, s - t0, e - t0, p, c]
                for ix, s, e, p, c in zip(
                    self.layer, self.start, self.end, self.parent, self.count
                )
            ],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh, separators=(",", ":"))
