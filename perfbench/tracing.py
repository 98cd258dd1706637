"""In-memory tracing of the calls ``kdvbwaves.cli`` and ``kdvbwaves.verify``
make into the package's modules, recorded from outside the package.

``Tracer.install`` replaces module attributes with timing wrappers:

* in ``kdvbwaves.cli`` and ``kdvbwaves.verify``, every function imported
  from another package module (layer = that module's name);
* in ``kdvbwaves.verify``, its own public residual, oracle and audit
  functions, which ``verification_suite`` looks up as module globals;
* ``kdvbwaves.cli.build_parser`` and the ``parse_args`` of the parser it
  returns, which time argument parsing.

Calls of a function that runs once per grid point (POINTWISE) update an
aggregated counter; every other call records a span (name, start, end,
parent).  All calls feed the self time of their layer: a call's duration
minus the duration of the wrapped calls made inside it.  ``uninstall``
puts the original attributes back.
"""

from __future__ import annotations

import functools
import inspect
import time

POINTWISE = frozenset({
    "eval_universal", "eval_compound", "eval_rational", "eval_kdvb_physical",
    "eval_compound_physical", "eval_rational_physical", "eval_solution",
    "eval_solution_physical", "solution_jet", "physical_jet",
})
VERIFY_OWN = (
    "residual_first_integral", "residual_pde", "check_first_integral_consistency",
    "oracle_integrate_bernoulli", "oracle_integrate_riccati", "rational_form_audit",
)
# span count at which recording stops, so a function that a later version
# calls once per point cannot exhaust memory; the counters stay exact
MAX_SPANS = 200_000


def _rk4_steps(result) -> int:
    thetas = getattr(result, "thetas", None)
    return len(thetas) - 1 if thetas is not None else 0


WORK = {"oracle_integrate_bernoulli": ("verify.rk4_steps", _rk4_steps),
        "oracle_integrate_riccati": ("verify.rk4_steps", _rk4_steps)}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int]] = []  # name, start, end, parent
        self.dropped_spans = 0
        self.counters: dict[str, list[int]] = {}  # name -> [calls, ns, points]
        self._pointwise_layer: dict[str, str] = {}
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.work: dict[str, int] = {}
        self._stack: list[list] = []  # [layer, child ns, span index or -1, start ns]
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _parent_span(self) -> int:
        for frame in reversed(self._stack):
            if frame[2] >= 0:
                return frame[2]
        return -1

    def enter(self, name: str, layer: str | None, span: bool) -> list:
        index = -1
        if span:
            if len(self.spans) < MAX_SPANS:
                index = len(self.spans)
                self.spans.append((name, time.perf_counter_ns(), 0, self._parent_span()))
            else:
                self.dropped_spans += 1
        frame = [layer, 0, index, time.perf_counter_ns()]
        self._stack.append(frame)
        return frame

    def leave(self, frame: list) -> int:
        end = time.perf_counter_ns()
        duration = end - frame[3]
        self._stack.pop()
        layer = frame[0]
        if layer is not None:
            self.self_ns[layer] = self.self_ns.get(layer, 0) + duration - frame[1]
            self.calls[layer] = self.calls.get(layer, 0) + 1
        if self._stack:
            self._stack[-1][1] += duration
        if frame[2] >= 0:
            name, start, _, parent = self.spans[frame[2]]
            self.spans[frame[2]] = (name, start, end, parent)
        return duration

    def wrap(self, fn, name: str, layer: str):
        if fn.__name__ in POINTWISE:
            return self._wrap_pointwise(fn, name, layer)
        work = WORK.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.enter(name, layer, span=True)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave(frame)
            if work is not None:
                self.work[work[0]] = self.work.get(work[0], 0) + work[1](result)
            return result

        return traced

    def _wrap_pointwise(self, fn, name: str, layer: str):
        """Lean wrapper: adds to a counter and to the caller's child time.

        POINTWISE functions make no wrapped calls themselves, so their whole
        duration is self time of ``layer``; ``snapshot`` adds it there.
        """
        counter = self.counters.setdefault(name, [0, 0, 0])
        self._pointwise_layer[name] = layer
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                counter[0] += 1
                counter[1] += duration
                at = args[1] if len(args) > 1 else None
                counter[2] += 1 if type(at) is float else int(getattr(at, "size", 1))
                if stack:
                    stack[-1][1] += duration

        return traced

    def snapshot(self) -> dict:
        """Cumulative totals, for per-pass differences."""
        self_ns, calls = dict(self.self_ns), dict(self.calls)
        for name, layer in self._pointwise_layer.items():
            n, ns, _ = self.counters[name]
            self_ns[layer] = self_ns.get(layer, 0) + ns
            calls[layer] = calls.get(layer, 0) + n
        return {
            "self_ns": self_ns,
            "calls": calls,
            "work": dict(self.work),
            "parse_ns": self.counters.get("cli.parse", [0, 0, 0])[1],
        }

    # -- installation ------------------------------------------------------

    def _replace(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self, cli, verify) -> None:
        for module in (cli, verify):
            here = module.__name__
            for attr, obj in list(vars(module).items()):
                origin = getattr(obj, "__module__", "") or ""
                if (inspect.isfunction(obj) and origin.startswith("kdvbwaves.")
                        and origin != here):
                    layer = origin.rsplit(".", 1)[1]
                    self._replace(module, attr, self.wrap(obj, f"{layer}.{attr}", layer))
        for attr in VERIFY_OWN:
            if hasattr(verify, attr):
                self._replace(verify, attr, self.wrap(getattr(verify, attr), f"verify.{attr}", "verify"))
        if hasattr(cli, "build_parser"):
            self.counters["cli.parse"] = [0, 0, 0]
            self._replace(cli, "build_parser", self._timed_parser(cli.build_parser))

    def _timed_parser(self, build_parser):
        """build_parser whose build and parse_args add to the cli.parse counter."""
        tracer = self

        def timed(fn):
            @functools.wraps(fn)
            def inner(*args, **kwargs):
                frame = tracer.enter("cli.parse", "cli", span=False)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.counters["cli.parse"][1] += tracer.leave(frame)
            return inner

        @functools.wraps(build_parser)
        def build():
            parser = timed(build_parser)()
            parser.parse_args = timed(parser.parse_args)
            tracer.counters["cli.parse"][0] += 1
            return parser

        return build

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": n, "start_ns": s, "end_ns": e, "parent": p} for n, s, e, p in self.spans
            ],
            "dropped_spans": self.dropped_spans,
            "counters": {
                n: {"calls": c, "ns": ns, "points": pts} for n, (c, ns, pts) in self.counters.items()
            },
        }
