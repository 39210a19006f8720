"""The benchmark's traced layers must exist in the package.

``BENCHMARK.json`` declares a ``<layer>.calls`` metric for every function
the traced benchmark run wraps.  A refactor that renames or inlines one of
them would only show up as a missing layer in a traced run; this test
makes it fail the unit tests instead.
"""

import importlib
import json
from pathlib import Path

from fewshot import heads

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def traced_layers():
    spec = json.loads(BENCHMARK.read_text())
    return [m["name"][: -len(".calls")] for m in spec["per_layer"]
            if m["name"].endswith(".calls")]


def test_every_traced_layer_resolves_to_a_package_function():
    layers = traced_layers()
    assert layers
    for layer in layers:
        module_name, _, rest = layer.partition(".")
        module = importlib.import_module(f"fewshot.{module_name}")
        if module_name == "heads" and rest in ("episode_loss", "distances_np"):
            # traced on each head class, so each must define it in its own body
            for cls in heads.HEADS.values():
                assert callable(vars(cls).get(rest)), f"{cls.__name__}.{rest}"
            continue
        owner = module
        *path, name = rest.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert callable(vars(owner).get(name)), layer
