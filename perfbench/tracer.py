"""In-memory span tracer for the benchmark's traced runs (``--trace 1``).

A span is a name, a parent span, a start and an end, recorded around one call
into a package function.  Spans are kept in flat arrays while a run lasts and
written out when it ends.  A span's self time is its duration minus the part
of its interval that its child spans cover; calls run on one thread and nest,
so that part is the sum of the direct children's durations.
"""

from __future__ import annotations

import time
from array import array

# (calling module, name bound in it, span name).  The package binds names at
# import (``from .belief import predict, update``), so a span wraps the name
# in the module that *calls* it: patching ``rbtbench.belief.update`` alone
# would miss every call that ``rbtbench.env`` makes.  Span names are
# ``<defining module>.<function>``.
CALL_SITES = (
    ("cli", "load_qtable", "solver.load_qtable"),
    ("cli", "run_episodes", "env.run_episodes"),
    ("cli", "mean_ci95", "metrics.mean_ci95"),
    ("cli", "aggregate_by_timestep", "metrics.aggregate_by_timestep"),
    ("cli", "write_trace", "cli.write_trace"),
    ("cli", "render_returns_svg", "cli.render_returns_svg"),
    ("env", "run_episode", "env.run_episode"),
    ("env", "sample_window", "env.sample_window"),
    ("env", "predict", "belief.predict"),
    ("env", "update", "belief.update"),
    ("env", "mixture_values", "policy.mixture_values"),
    ("env", "alt_values", "policy.alt_values"),
    ("env", "argmax_set", "policy.argmax_set"),
    ("env", "reply_distribution", "opponents.reply_distribution"),
    ("belief", "reply_distribution", "opponents.reply_distribution"),
    ("solver", "reply_distribution", "opponents.reply_distribution"),
    ("solver", "enumerate_reachable_states", "game.enumerate_reachable_states"),
    ("opponents", "game_value", "opponents.game_value"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn):
        """Return `fn` with a span named `name` recorded around each call."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    def install(self, pkg) -> None:
        """Patch every name in CALL_SITES on a freshly imported package namespace."""
        for module, attr, span in CALL_SITES:
            mod = getattr(pkg, module)
            setattr(mod, attr, self.wrap(span, getattr(mod, attr)))

    def self_ns(self) -> list[int]:
        start, end, parent = self.start, self.end, self.parent
        own = [e - s for s, e in zip(start, end)]
        for sid, p in enumerate(parent):
            if p >= 0:
                own[p] -= end[sid] - start[sid]
        return own

    def by_name(self) -> dict[str, tuple[int, int]]:
        """Span name -> (calls, total self time in ns)."""
        calls = [0] * len(self.names)
        self_total = [0] * len(self.names)
        for nid, own in zip(self.name_id, self.self_ns()):
            calls[nid] += 1
            self_total[nid] += own
        return {name: (calls[i], self_total[i]) for i, name in enumerate(self.names)}

    def first(self, name: str) -> int:
        nid = self._ids[name]
        return self.name_id.index(nid)

    def subtree_adds_up(self, sid: int) -> bool:
        """Spot check: the self times of a span and all its descendants sum to its span.

        Spans are numbered in call order, so the descendants of `sid` are the
        spans after it that start before it ends; each must lie inside it.
        """
        lo, hi = self.start[sid], self.end[sid]
        last = sid
        while last + 1 < len(self) and self.start[last + 1] < hi:
            last += 1
            if self.end[last] > hi or self.start[last] < lo:
                return False
        own = self.self_ns()
        return sum(own[sid:last + 1]) == hi - lo

    def write(self, fh, label: str) -> None:
        """One tab-separated line per span: label, id, parent, name, start_ns, end_ns."""
        names = self.names
        for sid, (nid, p, s, e) in enumerate(zip(self.name_id, self.parent, self.start, self.end)):
            fh.write(f"{label}\t{sid}\t{p}\t{names[nid]}\t{s}\t{e}\n")
