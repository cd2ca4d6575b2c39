"""Outside-in tracer: spans around calls into the library's layers.

Each public function is replaced, for the duration of a traced pass, in
the namespace where its caller looks it up (``nashatlas.equilibrium.
solve_affine``, ``nashatlas.exact.rref``, ``nashatlas.cli.parse_game``,
...); ``MultilinearForm.eval``/``grad`` are replaced on the class. A
span is (name, start, end, parent span, task id); spans live in compact
arrays in memory and are written out once, at the end of the run.

A span's self time is its duration minus the durations of its child
spans (calls are nested and single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from time import perf_counter

import numpy as np
from nashatlas import atlas, cli, equilibrium, exact, forms, genericity


def _solve_support_route(args, kwargs) -> str:
    game = args[0] if args else kwargs["game"]
    route = "exact" if game.num_players == 2 else "newton"
    return f"equilibrium.solve_support.{route}"


def _observe_solve_support(counts, result, exc):
    if isinstance(exc, equilibrium.SingularSystem):
        counts["equilibrium.solve_support.singular"] += 1
        counts["equilibrium.solve_support.candidates"] += len(exc.candidates)
    elif exc is None:
        counts["equilibrium.solve_support.candidates"] += len(result)


def _observe_best_reply(counts, result, exc):
    if exc is None and result.all_ok:
        counts["equilibrium.best_reply_check.pass"] += 1


def _observe_probe(counts, result, exc):
    if exc is None:
        counts["genericity.regular_value_probe.roots"] += len(result.roots)


#: (owner, attribute, span name or name function, observer or None)
TARGETS = (
    (cli, "main", "cli.main", None),
    (cli, "parse_game", "game.parse_game", None),
    (cli, "enumerate_nash", "equilibrium.enumerate_nash", None),
    (equilibrium, "enumerate_nash", "equilibrium.enumerate_nash", None),
    (equilibrium, "solve_support", _solve_support_route, _observe_solve_support),
    (equilibrium, "solve_affine", "exact.solve_affine", None),
    (exact, "rref", "exact.rref", None),
    (equilibrium, "best_reply_check", "equilibrium.best_reply_check", _observe_best_reply),
    (equilibrium, "payoff_slice_values", "forms.payoff_slice_values", None),
    (equilibrium, "certify_equilibrium", "genericity.certify_equilibrium", None),
    (genericity, "transversal_at", "genericity.transversal_at", None),
    (genericity, "defining_map", "atlas.defining_map", None),
    (genericity, "full_gradient", "genericity.full_gradient", None),
    (genericity, "regular_value_probe", "genericity.regular_value_probe", _observe_probe),
    (atlas, "homogeneous_decomposition", "forms.homogeneous_decomposition", None),
    (forms.MultilinearForm, "eval", "forms.eval", None),
    (forms.MultilinearForm, "grad", "forms.grad", None),
)


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.task_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _wrap(self, fn, name, observe):
        tracer = self
        stack = self._stack
        fixed = None if callable(name) else self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name_id.append(fixed if fixed is not None
                                  else tracer._name_id(name(args, kwargs)))
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.task.append(tracer.task_id)
            tracer.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            tracer.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end[idx] = perf_counter()
                stack.pop()
                if observe is not None:
                    observe(tracer.counts, None, exc)
                raise
            tracer.end[idx] = perf_counter()
            stack.pop()
            if observe is not None:
                observe(tracer.counts, result, None)
            return result

        return traced

    def __enter__(self):
        for owner, attr, name, observe in TARGETS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, observe))
        return self

    def __exit__(self, *exc_info):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        return False

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "task": np.frombuffer(self.task, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s (sum of durations) and self_s."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        out = {}
        for k, name in enumerate(self.names):
            sel = a["name_id"] == k
            out[name] = {"calls": int(sel.sum()), "total_s": float(dur[sel].sum()),
                         "self_s": float(own[sel].sum())}
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
