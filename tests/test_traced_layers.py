"""The benchmark's traced layers must exist in the package.

``BENCHMARK.json`` declares a ``<layer>.calls`` metric for every function
the traced benchmark run wraps.  A refactor that renames or inlines one of
them would only show up as a missing layer in a traced run; this test
makes it fail the unit tests instead.  The traced run also checks some of
their call counts by name (perfbench's ``workloads.expected_counts``);
the last test here asserts the same counts on a tiny fit and evaluation.
"""

import collections
import importlib
import json
import sys
from pathlib import Path

import pytest

from fewshot import encoder, episodes, heads, train
from fewshot.evaluate import evaluate
from fewshot.episodes import split_classes, synth_gaussian
from fewshot.linalg import named_stream

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


def count_calls(monkeypatch, counts, owner, attr):
    """Count calls of ``owner.attr`` wherever a loaded fewshot module binds it."""
    original = vars(owner)[attr]

    def counted(*args, **kwargs):
        counts[attr] += 1
        return original(*args, **kwargs)

    if isinstance(owner, type):
        monkeypatch.setattr(owner, attr, counted)
        return
    for name, module in list(sys.modules.items()):
        if (name == "fewshot" or name.startswith("fewshot.")) and \
                vars(module).get(attr) is original:
            monkeypatch.setattr(module, attr, counted)


@pytest.mark.parametrize("head_name", ["regression", "proto"])
def test_fit_and_evaluate_make_the_calls_the_traced_run_checks(monkeypatch, head_name):
    data = synth_gaussian(named_stream(0, "dataset"), 12, 20, 6, 1.0, 0.4)
    train_set, val_set, test_set = split_classes(data, (0.5, 0.25, 0.25),
                                                 named_stream(0, "split"))
    config = train.TrainConfig(n_way=3, k_shot=2, q_queries=3, episodes=6,
                               val_interval=3, val_episodes=4, embed_dim=4,
                               hidden_dim=8, depth=1, seed=0)
    head = heads.make_head(head_name)
    counts = collections.Counter()
    count_calls(monkeypatch, counts, episodes, "sample_episode")
    count_calls(monkeypatch, counts, episodes.Episode, "fingerprint")
    count_calls(monkeypatch, counts, train, "episode_accuracy")
    count_calls(monkeypatch, counts, type(head), "distances_np")
    count_calls(monkeypatch, counts, encoder, "embed_np")
    embeds_per_validation = []
    validate = train.validate

    def counted_validate(*args, **kwargs):
        before = counts["embed_np"]
        result = validate(*args, **kwargs)
        embeds_per_validation.append(counts["embed_np"] - before)
        return result

    monkeypatch.setattr(train, "validate", counted_validate)
    params, _ = train.fit(train_set, val_set, config, head=head)
    test_episodes = 5
    evaluate(params, head, test_set, 3, 2, 3, test_episodes, seed=0)

    validations = config.episodes // config.val_interval
    assert counts["sample_episode"] == (config.episodes
                                        + validations * config.val_episodes
                                        + test_episodes)
    assert counts["fingerprint"] == test_episodes
    assert counts["episode_accuracy"] > 0
    assert counts["distances_np"] > 0
    assert embeds_per_validation == [1] * validations
