"""Spans around the package's public functions, recorded from outside it.

``patched`` swaps a wrapper in for a function at every place the
package binds it: module attributes of every loaded ``fewshot`` module
(``fewshot.evaluate`` and ``fewshot.train`` import ``episode_accuracy``
and ``sample_episode`` by name, and the package namespace re-exports
most of them) and class attributes for methods.  On exit the originals
are put back, so an untraced run after a traced one pays nothing.

A span records its call count, inclusive time and self time (inclusive
minus the time of child spans).  Spans stay in memory; the benchmark
reads the totals when the traced run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import defaultdict


class Tracer:
    """Per-name call counts, inclusive and self seconds, and raised counts."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.raised: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []   # [name, child seconds] per open span

    def active(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def wrap(self, name: str, fn, observe=None):
        """``fn`` inside a span; ``observe(tracer, args, kwargs)`` runs first."""
        stack = self._stack

        def spanned(*args, **kwargs):
            if observe is not None:
                observe(self, args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.raised[name] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.seconds[name] += elapsed
                self.self_seconds[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        spanned.__wrapped__ = fn
        return spanned


def resolve(target: str):
    """(owner, attribute) pairs for ``module.function`` or ``module.Class.method``.

    A bare method name under ``heads`` (``heads.episode_loss``) means the
    method on every head class, which is where the heads dispatch it.
    """
    module_name, _, rest = target.partition(".")
    module = importlib.import_module(f"fewshot.{module_name}")
    if "." in rest:
        class_name, attr = rest.split(".")
        return [(getattr(module, class_name), attr)]
    if module_name == "heads" and rest in ("episode_loss", "distances_np"):
        return [(cls, rest) for cls in module.HEADS.values()]
    return [(module, rest)]


def binding_sites(original):
    """Every (namespace owner, attribute) in loaded fewshot modules bound to ``original``."""
    sites = []
    for name, module in list(sys.modules.items()):
        if name != "fewshot" and not name.startswith("fewshot."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                sites.append((module, attr))
    return sites


@contextlib.contextmanager
def patched(wrappers: dict):
    """Install ``{target: make_wrapper(name, original)}`` at every binding site.

    Yields the list of targets that could not be resolved, so a caller can
    report a layer that no longer exists instead of silently reading zero.
    """
    restore = []
    missing = []
    try:
        for target, make in wrappers.items():
            try:
                owners = resolve(target)
            except (ImportError, AttributeError, ValueError):
                missing.append(target)
                continue
            for owner, attr in owners:
                original = vars(owner).get(attr)
                if original is None:
                    missing.append(target)
                    continue
                wrapper = make(target, original)
                sites = [(owner, attr)]
                if not isinstance(owner, type):
                    sites = binding_sites(original)
                for site_owner, site_attr in sites:
                    restore.append((site_owner, site_attr, original))
                    setattr(site_owner, site_attr, wrapper)
        yield missing
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
