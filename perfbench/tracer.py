"""Layer spans around the public functions of ``minellip``.

The tracer replaces each traced function at every name a caller looks it up
by (``minellip.cli.simulate`` and ``minellip.sim.simulate`` are the same
function reached through two modules), so a span is recorded whichever
module makes the call. Spans stay in memory as ``(name, start, end,
parent)`` tuples; self time is a span's duration minus the time its child
spans cover. Nothing inside the package is changed: uninstalling puts the
original functions back.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import sys
import time
from collections import Counter

#: Traced functions by layer module. A span is named ``<module>.<function>``;
#: the CLI subcommand handlers ``cmd_<name>`` are named ``cli.<name>``.
TRACED = {
    "matkit": ("lyap_solve", "are_solve", "spectrum"),
    "graph": ("build_laplacian",),
    "protocol": ("closed_loop",),
    "ellipsoid": ("minimize_trace", "check_invariant", "find_beta", "check_input_bound"),
    "gainsynth": ("optimize_gain",),
    "sim": ("simulate", "make_disturbance", "metrics"),
    "scenario": ("load",),
    "cli": ("cmd_verify", "cmd_minimize", "cmd_simulate", "cmd_design", "cmd_report"),
}


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: Counter = Counter()
        self.lyap_max_order = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "minellip" or n.startswith("minellip.")]
        for layer, functions in TRACED.items():
            home = sys.modules[f"minellip.{layer}"]
            for function in functions:
                original = getattr(home, function)
                wrapper = self._wrap(f"{layer}.{function.removeprefix('cmd_')}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- recording ------------------------------------------------------
    def _wrap(self, name, original):
        hook = {
            "matkit.lyap_solve": self._on_lyap,
            "sim.simulate": self._on_simulate,
        }.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(original, args, kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, 0.0, 0.0, parent))
            stack.append(index)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)

        traced.__wrapped__ = original
        return traced

    def _on_lyap(self, original, args, kwargs):
        order = len(args[0] if args else kwargs["m"])
        self.lyap_max_order = max(self.lyap_max_order, order)
        # dense LU of the n^2 x n^2 Kronecker operator: 2/3 (n^2)^3 flops
        self.counters["lyap_flop"] += 2.0 / 3.0 * float(order * order) ** 3
        return args, kwargs

    def _on_simulate(self, original, args, kwargs):
        bound = inspect.signature(original).bind(*args, **kwargs)
        a = bound.arguments
        self.counters["sim_steps"] += int(math.floor(a["t_final"] / a["dt"] + 1e-9))
        dist = a["dist"]
        sampler = dist.sampler
        counters = self.counters

        def counted(t, e):
            counters["sim_draws"] += 1
            return sampler(t, e)

        a["dist"] = dataclasses.replace(dist, sampler=counted)
        return bound.args, bound.kwargs

    # -- aggregation ----------------------------------------------------
    def summary(self) -> dict:
        """Per-name call count, total time and self time, plus the number
        of spans of each name found under each other name."""
        calls, total, child = Counter(), Counter(), Counter()
        under = Counter()
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
            ancestor = parent
            seen = set()
            while ancestor >= 0:
                outer = self.spans[ancestor][0]
                if outer not in seen:
                    under[(outer, name)] += 1
                    seen.add(outer)
                ancestor = self.spans[ancestor][3]
        self_time = Counter()
        for index, (name, start, end, _) in enumerate(self.spans):
            self_time[name] += (end - start) - child[index]
        return {"calls": calls, "total": total, "self": self_time, "under": under}
