"""Layer tracing of a `quatmhd solve` process from outside the package.

`Tracer.install()` replaces every public function of the traced quatmhd
modules, and every public method of `OperatorSet`, with a timing wrapper.
A function is replaced under every module-level name that refers to it,
because callers look functions up in their own namespace
(`from .grid import h1_norm` makes `quatmhd.solvers.h1_norm` a separate
binding). Methods are replaced on the class. Nothing under `src/` changes.

Spans are aggregated while the process runs, per span name
`<module>.<function>`:

- `calls`, `total_s`, `self_s` (duration minus the direct child spans),
  `first_s` (duration of the first call);
- `rss_mib` and `first_rss_mib` for `RSS_SPANS`: the rise of the process's
  `ru_maxrss` high-water mark across a call (largest rise, first rise).
  A call that stays under an earlier peak reads 0;
- `q_applies`/`q_active`: Bergman Q calls made inside the span's subtree,
  and the calls that made at least one;
- fields read from return values by `RETURN_HOOKS` (inner iterations,
  Neumann terms, cap flags) and `bytes` written by the io writers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import resource
import sys
import time

MODULES = ("operators", "solvers", "mhd", "energy", "grid", "quaternion",
           "io", "cli")
RSS_SPANS = frozenset({"operators.bergman_Q", "operators.cauchy"})
Q_SPAN = "operators.bergman_Q"
IO_WRITERS = frozenset({"io.write_vtk", "io.write_csv", "io.write_manifest",
                        "io.write_convergence_csv"})


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _inner_b(stat, bound, result):
    # banach_inner_B returns (B, iterations, last ratio); hitting max_inner
    # means the loop stopped on its cap, not on its tolerance.
    iters = result[1]
    stat["iters"] = stat.get("iters", 0) + iters
    stat["capped"] = stat.get("capped", 0) + (iters >= bound["cfg"].max_inner)


def _neumann(stat, bound, result):
    # neumann_apply_* return (field, q, terms used).
    _, q, used = result
    stat["terms"] = stat.get("terms", 0) + used
    stat["q"] = max(stat.get("q", 0.0), q)
    stat["capped"] = stat.get("capped", 0) + (
        used >= bound["cfg"].neumann_max_terms)


def _written(stat, bound, result):
    stat["bytes"] = stat.get("bytes", 0) + os.path.getsize(bound["path"])


RETURN_HOOKS = {
    "solvers.banach_inner_B": _inner_b,
    "solvers.neumann_apply_u": _neumann,
    "solvers.neumann_apply_B": _neumann,
    **{name: _written for name in IO_WRITERS},
}


class Tracer:
    """Aggregated timing spans of one process."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self._stack: list[list] = []   # open spans: [child seconds, Q calls]

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        hook = RETURN_HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None
        rss = name in RSS_SPANS
        is_q = name == Q_SPAN
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, 0]
            stack.append(frame)
            rss0 = _maxrss_mib() if rss else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                first = stat["calls"] == 0
                stat["calls"] += 1
                stat["total_s"] += dt
                stat["self_s"] += dt - frame[0]
                if first:
                    stat["first_s"] = dt
                if rss:
                    rise = _maxrss_mib() - rss0
                    stat["rss_mib"] = max(stat.get("rss_mib", 0.0), rise)
                    if first:
                        stat["first_rss_mib"] = rise
                if frame[1]:
                    stat["q_applies"] = stat.get("q_applies", 0) + frame[1]
                    stat["q_active"] = stat.get("q_active", 0) + 1
                if stack:
                    stack[-1][0] += dt
                    stack[-1][1] += frame[1] + is_q
            if hook is not None:
                hook(stat, sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of MODULES and OperatorSet's methods."""
        mods = {m: importlib.import_module(f"quatmhd.{m}") for m in MODULES}
        ops_cls = mods["operators"].OperatorSet
        methods = {k for k, v in vars(ops_cls).items()
                   if inspect.isfunction(v) and not k.startswith("_")}
        for k in sorted(methods):
            setattr(ops_cls, k, self.wrap(f"operators.{k}",
                                          getattr(ops_cls, k)))
        replaced = {}
        for short, mod in mods.items():
            for k, v in list(vars(mod).items()):
                if (k.startswith("_") or not inspect.isfunction(v)
                        or v.__module__ != mod.__name__):
                    continue
                # module-level delegates such as operators.teodorescu(f)
                # forward to the method of the same name, already wrapped
                if short == "operators" and k in methods:
                    continue
                replaced[v] = self.wrap(f"{short}.{k}", v)
        # rebind every name that refers to a wrapped function, in every
        # loaded quatmhd module, so callers reach the wrapper
        for name, mod in list(sys.modules.items()):
            if name != "quatmhd" and not name.startswith("quatmhd."):
                continue
            for k, v in list(vars(mod).items()):
                if inspect.isfunction(v) and v in replaced:
                    setattr(mod, k, replaced[v])

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.stats, f, indent=1, sort_keys=True)
