"""Timing spans around the public functions of the ``tpslab`` layers.

A :class:`Tracer` replaces a function on every module that holds a binding
to it: modules import helpers by name (``from .linalg import
check_density_matrix``), so patching only the defining module would leave
most calls uncounted.  Each call opens a span with a parent stack; a span's
self time is its duration minus the time its child spans cover.  All
aggregates stay in memory; :meth:`Tracer.uninstall` puts every original
binding back.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

_MARK = "__perfbench_span__"


class Tracer:
    """Per-function call counts and self times, plus hook-fed counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(int)
        self._stack: list[list[float]] = []  # per open span: [child coverage]
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counters.clear()

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``after(tracer, args, kwargs, result)`` runs after a successful call,
        outside the span, to feed counters.
        """
        clock = self.clock
        stack = self._stack

        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            if after is not None:
                after(self, args, kwargs, result)
            return result

        span.__name__ = getattr(fn, "__name__", name)
        span.__doc__ = getattr(fn, "__doc__", None)
        setattr(span, _MARK, fn)
        return span

    def install(self, targets, package: str = "tpslab") -> None:
        """Wrap each target on every binding inside ``package``.

        ``targets`` holds ``(span_name, owner, attribute, after)``: ``owner``
        is the defining module or class.  Module-level functions are also
        rebound on every other loaded module of the package that imported
        them by name; methods are rebound on their class.
        """
        modules = [m for n, m in sorted(sys.modules.items()) if n == package or n.startswith(package + ".")]
        for name, owner, attr, after in targets:
            original = owner.__dict__[attr]
            wrapped = self.wrap(name, original, after)
            holders = [owner] if isinstance(owner, type) else [m for m in modules if m.__dict__.get(attr) is original]
            for holder in holders:
                self._patched.append((holder, attr, original))
                setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()


def leftover_spans(package: str = "tpslab") -> list[str]:
    """Names of wrapped bindings still present in the package's modules and
    classes; empty when every wrapper has been removed."""
    found = []
    for mod_name, module in sorted(sys.modules.items()):
        if not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in vars(module).items():
            if hasattr(value, _MARK):
                found.append(f"{mod_name}.{attr}")
            if isinstance(value, type) and value.__module__ == mod_name:
                found.extend(
                    f"{mod_name}.{attr}.{m}" for m, v in vars(value).items() if hasattr(v, _MARK)
                )
    return found
