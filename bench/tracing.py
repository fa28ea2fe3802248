"""Per-layer tracing from outside the program.

The tracer replaces the public functions that `cl15.cli` and `cl15.cl15`
call with timing wrappers, and wraps the game, machine and environment
objects that pass through `simulate` in proxies that time the methods the
simulator calls and forward every other attribute.  Spans nest: a span's
self time is its duration minus the time of the spans it contains.  All
state lives in one Tracer object and is restored by `uninstall`.
"""
from __future__ import annotations

import importlib
import time
from dataclasses import dataclass

_clock = time.perf_counter


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0


# (module, attribute, span).  The cli module imported some names into its
# own namespace, so those are replaced there; the rest are looked up on the
# cl15.cl15 module at call time, by the CLI and by the strategy module alike.
FUNCTION_SPANS = [
    ("cl15.cli", "main", "cli.main"),
    ("cl15.cl15", "parse_proof", "cl15.parse_proof"),
    ("cl15.cl15", "verify_proof", "cl15.verify_proof"),
    ("cl15.cl15", "check_step", "cl15.check_step"),
    ("cl15.cli", "extract_solution", "strategy.extract_solution"),
    ("cl15.cli", "interpret_cirquent", "games.interpret"),
    ("cl15.cli", "interpret_formula", "games.interpret"),
    ("cl15.cli", "random_finite_interpretation", "harness.random_interp"),
    ("cl15.cli", "simulate", "strategy.simulate"),
]

# Spans entered only through the proxies.
PROXY_SPANS = ["games.legal", "games.winner", "strategy.machine_next", "harness.on_grant"]


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self.absent: set[str] = set()
        self.legal_labmoves = 0
        self.probes = 0
        self.probes_accepted = 0
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    # Spans

    def enter(self, name: str) -> None:
        self._stack.append([name, _clock(), 0.0])

    def leave(self) -> None:
        end = _clock()
        name, start, inner = self._stack.pop()
        spent = end - start
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats()
        stats.calls += 1
        stats.self_s += spent - inner
        if self._stack:
            self._stack[-1][2] += spent

    def current(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    # Installation

    def install(self) -> None:
        for module_name, attr, span in FUNCTION_SPANS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.add(span)
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, span: str, fn):
        tracer = self
        if span == "games.interpret":
            def call(*args, **kwargs):
                tracer.enter(span)
                try:
                    return GameProxy(fn(*args, **kwargs), tracer)
                finally:
                    tracer.leave()
        elif span == "strategy.simulate":
            def call(m, e, g, *args, **kwargs):
                if not isinstance(g, GameProxy):
                    g = GameProxy(g, tracer)
                tracer.enter(span)
                try:
                    return fn(MachineProxy(m, tracer), EnvProxy(e, tracer), g, *args, **kwargs)
                finally:
                    tracer.leave()
        else:
            def call(*args, **kwargs):
                tracer.enter(span)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.leave()
        return call

    def report(self) -> dict[str, SpanStats]:
        """Stats for every known span, zero for one never entered."""
        names = {span for _, _, span in FUNCTION_SPANS} | set(PROXY_SPANS)
        return {name: self.stats.get(name, SpanStats()) for name in sorted(names)}


class _Proxy:
    """Forwards every attribute it does not trace to the wrapped object.
    A traced method the object lacks marks its span absent."""

    traced: dict[str, str] = {}

    def __init__(self, target, tracer: Tracer):
        self._target = target
        self._tracer = tracer
        for method, span in self.traced.items():
            if not callable(getattr(target, method, None)):
                tracer.absent.add(span)

    def __getattr__(self, name):
        return getattr(self._target, name)


class GameProxy(_Proxy):
    traced = {"legal": "games.legal", "winner": "games.winner"}

    def legal(self, run):
        tracer = self._tracer
        probe = tracer.current() == "harness.on_grant"
        tracer.enter("games.legal")
        try:
            ok = self._target.legal(run)
        finally:
            tracer.leave()
        tracer.legal_labmoves += len(run)
        if probe:
            tracer.probes += 1
            tracer.probes_accepted += bool(ok)
        return ok

    def winner(self, run):
        self._tracer.enter("games.winner")
        try:
            return self._target.winner(run)
        finally:
            self._tracer.leave()


class MachineProxy(_Proxy):
    traced = {"next": "strategy.machine_next"}

    def spawn(self):
        return MachineProxy(self._target.spawn(), self._tracer)

    def next(self, run, step):
        self._tracer.enter("strategy.machine_next")
        try:
            return self._target.next(run, step)
        finally:
            self._tracer.leave()


class EnvProxy(_Proxy):
    traced = {"on_grant": "harness.on_grant"}

    def spawn(self):
        return EnvProxy(self._target.spawn(), self._tracer)

    def on_grant(self, run):
        self._tracer.enter("harness.on_grant")
        try:
            return self._target.on_grant(run)
        finally:
            self._tracer.leave()
