"""Dataset, episode sampling, synthetic generator, split, and CSV tests."""

import re
import warnings

import numpy as np
import pytest

from fewshot.episodes import (Dataset, load_csv, sample_episode, save_csv,
                              split_classes, synth_gaussian)
from fewshot.errors import ConfigError, DatasetFormatError, SamplingError
from fewshot.linalg import named_stream
from oracles import synth_gaussian_loop


def tiny_dataset(per_class=6, n_classes=4, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((dim, per_class * n_classes))
    labels = [c + 1 for c in range(n_classes) for _ in range(per_class)]
    return Dataset("tiny", features, labels)


def assert_same_dataset(got, want):
    """Same features bytes, labels, split, and class index: keys in the same
    order, each an equal ``intp`` array."""
    assert (got.name, got.split) == (want.name, want.split)
    assert got.features.dtype == np.float64 and got.features.flags.c_contiguous
    assert got.features.shape == want.features.shape
    assert got.features.tobytes() == want.features.tobytes()
    assert got.labels == want.labels
    assert [type(c) for c in got.labels] == [type(c) for c in want.labels]
    assert list(got.class_to_indices) == list(want.class_to_indices)
    for c, ix in want.class_to_indices.items():
        assert got.class_to_indices[c].dtype == np.intp
        assert np.array_equal(got.class_to_indices[c], ix)


def test_dataset_builds_a_class_index():
    data = tiny_dataset()
    assert data.dim == 3
    assert data.n_examples == 24
    assert data.class_ids == [1, 2, 3, 4]
    assert data.class_to_indices[2].tolist() == list(range(6, 12))
    assert data.eligible_classes(6) == [1, 2, 3, 4]
    assert data.eligible_classes(7) == []


def test_class_index_matches_a_per_label_loop():
    # interleaved, mixed int and str labels; keys sort by their text
    labels = ["b", 3, "a", 3, 10, "b", 2, 10, "a", 3]
    data = Dataset("mixed", np.zeros((1, len(labels))), labels)
    expected = {}
    for i, label in enumerate(labels):
        expected.setdefault(label, []).append(i)
    assert data.class_ids == sorted(expected, key=str) == [10, 2, 3, "a", "b"]
    assert {c: ix.tolist() for c, ix in data.class_to_indices.items()} == expected
    assert Dataset("empty", np.zeros((2, 0)), []).class_to_indices == {}


def test_dataset_rejects_mismatched_labels():
    with pytest.raises(DatasetFormatError):
        Dataset("bad", np.zeros((2, 5)), [1, 2, 3])


def test_subset_by_classes_keeps_only_those_classes():
    data = tiny_dataset()
    sub = data.subset_by_classes([2, 4], "train")
    assert sub.class_ids == [2, 4]
    assert sub.n_examples == 12
    assert sub.split == "train"
    assert np.array_equal(sub.features[:, :6], data.features[:, 6:12])
    # a class named twice is taken once
    assert_same_dataset(data.subset_by_classes([4, 2, 4], "train"), sub)


def test_sample_episode_shapes_and_grouped_labels():
    data = tiny_dataset()
    ep = sample_episode(data, n_way=3, k_shot=2, q_queries=4, rng=np.random.default_rng(5))
    assert ep.support_x.shape == (3, 6)
    assert ep.query_x.shape == (3, 12)
    assert np.array_equal(ep.support_y, np.repeat([1, 2, 3], 2))
    assert np.array_equal(ep.query_y, np.repeat([1, 2, 3], 4))
    assert sorted(ep.relabel.values()) == [1, 2, 3]
    assert set(ep.relabel) <= set(data.class_ids)


def test_sample_episode_is_deterministic_given_the_stream():
    data = tiny_dataset()
    a = sample_episode(data, 3, 2, 2, named_stream(9, "evaluation"))
    b = sample_episode(data, 3, 2, 2, named_stream(9, "evaluation"))
    assert a.fingerprint() == b.fingerprint()
    assert np.array_equal(a.support_x, b.support_x)
    c = sample_episode(data, 3, 2, 2, named_stream(10, "evaluation"))
    assert a.fingerprint() != c.fingerprint()


def test_support_and_query_never_share_examples():
    # unique feature values make column identity detectable
    dim, per_class, n_classes = 2, 7, 3
    features = np.arange(dim * per_class * n_classes, dtype=float).reshape(
        dim, per_class * n_classes)
    labels = [c + 1 for c in range(n_classes) for _ in range(per_class)]
    data = Dataset("unique", features, labels)
    rng = np.random.default_rng(0)
    for _ in range(200):
        ep = sample_episode(data, 3, 2, 3, rng)
        support = {tuple(col) for col in ep.support_x.T}
        query = {tuple(col) for col in ep.query_x.T}
        assert len(support) == 6 and len(query) == 9
        assert not (support & query)


def test_forced_partition_when_all_classes_are_needed():
    data = tiny_dataset(n_classes=3)
    ep = sample_episode(data, 3, 2, 2, np.random.default_rng(1))
    assert sorted(ep.relabel.keys(), key=str) == [1, 2, 3]


def test_sampling_error_names_the_shortfall():
    data = tiny_dataset(per_class=4, n_classes=3)
    with pytest.raises(SamplingError, match="need 4 classes"):
        sample_episode(data, 4, 2, 2, np.random.default_rng(0))
    with pytest.raises(SamplingError):
        sample_episode(data, 3, 3, 2, np.random.default_rng(0))  # K+Q > per_class


def test_class_sampling_is_roughly_uniform():
    data = tiny_dataset(per_class=4, n_classes=8)
    rng = np.random.default_rng(77)
    counts = {c: 0 for c in data.class_ids}
    trials = 2000
    for _ in range(trials):
        ep = sample_episode(data, 2, 1, 1, rng)
        for c in ep.relabel:
            counts[c] += 1
    expected = trials * 2 / 8
    # binomial std with p = 1/4; allow 4 sigma
    sigma = np.sqrt(trials * 0.25 * 0.75)
    for c, got in counts.items():
        assert abs(got - expected) < 4.0 * sigma, (c, got, expected)


def test_synth_gaussian_layout_and_determinism():
    data = synth_gaussian(3, n_classes=6, per_class=10, dim=4, spread=2.0,
                          within_std=0.5)
    assert data.features.shape == (4, 60)
    assert data.class_ids == [1, 2, 3, 4, 5, 6]
    assert all(len(data.class_to_indices[c]) == 10 for c in data.class_ids)
    again = synth_gaussian(3, n_classes=6, per_class=10, dim=4, spread=2.0,
                           within_std=0.5)
    assert np.array_equal(data.features, again.features)
    other = synth_gaussian(4, n_classes=6, per_class=10, dim=4, spread=2.0,
                           within_std=0.5)
    assert not np.array_equal(data.features, other.features)


@pytest.mark.parametrize("seed, args", [
    (3, dict(n_classes=6, per_class=10, dim=4, spread=2.0, within_std=0.5)),
    (5, dict(n_classes=2, per_class=1, dim=3)),
    (7, dict(n_classes=4, per_class=3, dim=2, within_std=0.0)),
    (11, dict(n_classes=12, per_class=4, dim=5, within_std=0.3, offset=-0.75)),
    ("stream", dict(n_classes=30, per_class=50, dim=32, within_std=0.3)),
], ids=["six-classes", "one-per-class", "no-noise", "offset", "generator"])
def test_synth_gaussian_matches_the_per_class_draw_loop(seed, args):
    # one noise draw for every class gives the loop's features bit for bit,
    # and the class index derived from the blocks is the one built from labels
    def fresh():
        return named_stream(0, "dataset") if seed == "stream" else seed

    assert_same_dataset(synth_gaussian(fresh(), **args), synth_gaussian_loop(fresh(), **args))


def test_synth_gaussian_offset_translates_every_feature():
    a = synth_gaussian(11, 4, 5, 3, 1.0, 0.3, offset=0.0)
    b = synth_gaussian(11, 4, 5, 3, 1.0, 0.3, offset=0.75, name="shifted")
    assert np.allclose(b.features, a.features + 0.75, atol=1e-12)
    assert b.name == "shifted"


def test_synth_gaussian_within_class_spread_tracks_within_std():
    data = synth_gaussian(13, 3, 400, 8, 1.0, 0.25)
    for c in data.class_ids:
        block = data.features[:, data.class_to_indices[c]]
        centered = block - block.mean(axis=1, keepdims=True)
        assert float(centered.std()) == pytest.approx(0.25, rel=0.1)


def test_synth_gaussian_validates_counts():
    with pytest.raises(ConfigError, match="^n_classes must be >= 2, got 1$"):
        synth_gaussian(0, 1, 5, 3)
    with pytest.raises(ConfigError, match="^per_class must be >= 1, got 0$"):
        synth_gaussian(0, 3, 0, 3)
    with pytest.raises(ConfigError, match="^dim must be >= 1, got 0$"):
        synth_gaussian(0, 3, 5, 0)
    for bad in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ConfigError, match="spread"):
            synth_gaussian(0, 3, 5, 3, spread=bad)
        with pytest.raises(ConfigError, match="within_std"):
            synth_gaussian(0, 3, 5, 3, within_std=bad)
    for bad in (float("nan"), float("-inf")):
        with pytest.raises(ConfigError, match="offset"):
            synth_gaussian(0, 3, 5, 3, offset=bad)


def test_synth_gaussian_draws_finite_features_up_to_its_bounds():
    # spread and |offset| up to a quarter of the float64 maximum and
    # within_std up to a sixteenth of that draw finite features with no
    # warning; the next float above each bound is refused, naming the field
    top = np.finfo(np.float64).max / 4
    highs = {"spread": top, "within_std": top / 16, "offset": top}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for offset in (top, -top):
            data = synth_gaussian(0, 20, 50, 20, highs["spread"], highs["within_std"], offset)
            assert np.all(np.isfinite(data.features))
    for name, high in highs.items():
        above = np.nextafter(high, np.inf)
        with pytest.raises(ConfigError, match=f"^{name} must be finite and within"):
            synth_gaussian(0, 3, 5, 3, **{name: above})
    with pytest.raises(ConfigError, match="^offset must be finite and within"):
        synth_gaussian(0, 3, 5, 3, offset=-np.nextafter(top, np.inf))


def test_split_classes_sizes_and_disjointness():
    data = synth_gaussian(5, 30, 3, 2)
    train, val, test = split_classes(data, (2 / 3, 1 / 6, 1 / 6), 17)
    assert (len(train.class_ids), len(val.class_ids), len(test.class_ids)) == (20, 5, 5)
    assert (train.split, val.split, test.split) == ("train", "val", "test")
    all_ids = train.class_ids + val.class_ids + test.class_ids
    # class_ids sorts by str so int and string labels order the same way
    assert sorted(all_ids, key=str) == data.class_ids
    assert not set(train.class_ids) & set(test.class_ids)
    assert not set(train.class_ids) & set(val.class_ids)


def test_every_split_equals_the_dataset_built_from_its_labels(tmp_path):
    # the splits derive their labels and index from the class blocks; the
    # per-label build of Dataset(name, features, labels, split) is the reference
    path = tmp_path / "mixed.csv"
    ids = [2, 10, "a", "b", 1, 30]
    path.write_text("".join(f"{ids[i % 6]},{i}.5,{-i}.25\n" for i in range(36)))
    for data, fractions in ((synth_gaussian(5, 30, 3, 2), (2 / 3, 1 / 6, 1 / 6)),
                            (synth_gaussian(6, 12, 2, 3, offset=1.5), (0.5, 0.25, 0.25)),
                            (load_csv(path), (1 / 3, 1 / 3, 1 / 3))):
        for seed in (0, 17):
            for s in split_classes(data, fractions, seed):
                assert s.n_examples > 0
                assert_same_dataset(s, Dataset(s.name, s.features, s.labels, s.split))


def test_split_classes_is_deterministic_and_seed_sensitive():
    data = synth_gaussian(5, 12, 3, 2)
    a = split_classes(data, (0.5, 0.25, 0.25), 1)
    b = split_classes(data, (0.5, 0.25, 0.25), 1)
    c = split_classes(data, (0.5, 0.25, 0.25), 2)
    assert a[2].class_ids == b[2].class_ids
    assert a[2].class_ids != c[2].class_ids


def test_split_classes_validates_fractions():
    data = tiny_dataset()
    with pytest.raises(ConfigError):
        split_classes(data, (0.5, 0.25), 0)
    with pytest.raises(ConfigError):
        split_classes(data, (0.8, 0.3, -0.1), 0)
    with pytest.raises(ConfigError):
        split_classes(data, (0.5, 0.3, 0.3), 0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            split_classes(data, (0.5, bad, 0.25), 0)


def test_csv_round_trip_is_value_exact(tmp_path):
    data = tiny_dataset(seed=3)
    path = tmp_path / "data.csv"
    save_csv(data, path)
    loaded = load_csv(path)
    assert np.array_equal(loaded.features, data.features)
    assert loaded.labels == data.labels
    assert loaded.dim == data.dim


def test_csv_accepts_string_labels(tmp_path):
    path = tmp_path / "named.csv"
    path.write_text("label,f1,f2\ncat,1.0,2.0\ncat,1.5,2.5\ndog,-1.0,0.0\n")
    data = load_csv(path)
    assert data.class_ids == ["cat", "dog"]
    assert data.features.shape == (2, 3)


def test_a_csv_label_is_an_int_only_when_it_is_an_ints_own_text(tmp_path):
    # int() also reads 01, +1, 1_0 and padded digits; those stay strings, so
    # each distinct label text is its own class
    path = tmp_path / "labels.csv"
    path.write_text("1,0.0\n01,1.0\n+1,2.0\n1_0,3.0\n10,4.0\n-2,5.0\n")
    data = load_csv(path)
    assert data.labels == [1, "01", "+1", "1_0", 10, -2]
    assert len(data.class_ids) == 6
    # string labels 007 and 7 come back from save_csv as two classes
    named = Dataset("named", np.arange(4.0).reshape(1, 4), ["007", "7", "007", "7"])
    save_csv(named, tmp_path / "named.csv")
    loaded = load_csv(tmp_path / "named.csv")
    assert loaded.labels == ["007", 7, "007", 7]
    assert [len(loaded.class_to_indices[c]) for c in loaded.class_ids] == [2, 2]


def test_save_csv_refuses_a_dataset_that_would_not_load_back(tmp_path):
    # each of these used to write a file that fails to load ("a,b", "a\nb",
    # ""), loads two classes as one (" a" and "a", "7" and 7), or stops at
    # its header (a lone surrogate, which UTF-8 cannot encode); a refusal
    # names the label and comes before the file exists
    path = tmp_path / "out.csv"
    for labels, named in ((["a,b", "c"], "label 'a,b'"), (["a\nb", "c"], "label 'a\\nb'"),
                          (["", "x"], "label ''"), ([" a", "a"], "label ' a'"),
                          (["7", 7], "labels '7' and 7"),
                          (["\ud800", "b"], "label '\\ud800'")):
        data = Dataset("two", np.arange(2.0).reshape(1, 2), labels)
        with pytest.raises(DatasetFormatError) as refused:
            save_csv(data, path)
        assert str(refused.value).startswith(f"two: {named} would")
        assert not path.exists()
    for features, labels in (([[0.0, np.nan]], [1, 2]), (np.zeros((2, 0)), []),
                             (np.zeros((0, 2)), [1, 2])):
        with pytest.raises(DatasetFormatError, match="features would not load back"):
            save_csv(Dataset("bad", np.array(features), labels), path)
        assert not path.exists()
    # a label that is not an int's own text, or starts with '#', keeps its class
    data = Dataset("kept", np.arange(6.0).reshape(2, 3), ["#x", "07", 3])
    save_csv(data, path)
    loaded = load_csv(path)
    assert loaded.labels == ["#x", "07", 3]
    assert np.array_equal(loaded.features, data.features)


def test_csv_header_is_optional(tmp_path):
    headerless = tmp_path / "bare.csv"
    headerless.write_text("a,1.0,2.0\nb,3.0,4.0\n")
    data = load_csv(headerless)
    assert data.labels == ["a", "b"]
    assert np.array_equal(data.features, np.array([[1.0, 3.0], [2.0, 4.0]]))

    numeric = tmp_path / "numeric.csv"
    numeric.write_text("1,0.5\n2,-0.5\n")
    assert load_csv(numeric).labels == [1, 2]

    # save_csv writes a label,f1,...,fD header; it is skipped, not loaded
    data = tiny_dataset(seed=4)
    path = tmp_path / "saved.csv"
    save_csv(data, path)
    assert path.read_text().startswith("label,f1,")
    assert load_csv(path).n_examples == data.n_examples


def test_csv_rejects_non_finite_features(tmp_path):
    for i, token in enumerate(("nan", "inf", "-inf", "NaN")):
        bad = tmp_path / f"bad{i}.csv"
        bad.write_text(f"label,f1,f2\n1,0.5,0.5\n2,0.5,{token}\n")
        with pytest.raises(DatasetFormatError, match=f"line 3 .*{token}"):
            load_csv(bad)
    headerless = tmp_path / "bare.csv"
    headerless.write_text("1,inf\n2,0.5\n")
    with pytest.raises(DatasetFormatError, match="line 1"):
        load_csv(headerless)


def test_csv_errors_name_the_line(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("label,f1,f2\n1,0.5,0.5\n2,0.5\n")
    with pytest.raises(DatasetFormatError, match="line 3"):
        load_csv(ragged)

    bad_value = tmp_path / "value.csv"
    bad_value.write_text("label,f1\n1,0.5\n2,abc\n")
    with pytest.raises(DatasetFormatError, match="line 3"):
        load_csv(bad_value)

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DatasetFormatError):
        load_csv(empty)

    header_only = tmp_path / "header.csv"
    header_only.write_text("label,f1\n")
    with pytest.raises(DatasetFormatError):
        load_csv(header_only)

    no_features = tmp_path / "nofeat.csv"
    no_features.write_text("label\n1\n")
    with pytest.raises(DatasetFormatError):
        load_csv(no_features)


@pytest.mark.parametrize("char", ["\x0c", "\x1c", "\x85", "\u2028"],
                         ids=["form-feed", "file-separator", "next-line", "line-separator"])
def test_csv_rows_end_only_at_a_newline(tmp_path, char):
    # str.splitlines would also break at these, cutting every row in two
    path = tmp_path / "data.csv"
    path.write_text("".join(f"{'abc'[i % 3]}{char},{i}.5,0.25\n" for i in range(9)),
                    encoding="utf-8")
    data = load_csv(path)
    assert (data.dim, data.n_examples) == (2, 9)
    assert data.class_ids == ["a", "b", "c"]
    assert data.features[0].tolist() == [i + 0.5 for i in range(9)]


def test_csv_reads_a_feature_holding_a_form_feed_and_crlf_endings(tmp_path):
    # float() takes "0.1\x0c", so each row is one label and two features
    rows = [f"{'cd'[i % 2]},0.1\x0c,{i}.5" for i in range(9)]
    ff = tmp_path / "ff.csv"
    ff.write_text("\n".join(rows) + "\n", encoding="utf-8")
    data = load_csv(ff)
    assert (data.dim, data.n_examples, data.class_ids) == (2, 9, ["c", "d"])
    assert data.features[1].tolist() == [i + 0.5 for i in range(9)]
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    text = "label,f1,f2\ncat,1.0,2.0\n\ndog,-1.0,0.5\n"
    lf.write_bytes(text.encode())
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    for got in (load_csv(crlf), load_csv(lf)):
        assert got.labels == ["cat", "dog"]
        assert got.features.tolist() == [[1.0, -1.0], [2.0, 0.5]]


def test_csv_refuses_a_blank_label_naming_its_line(tmp_path):
    for i, row in enumerate((",0.5,0.3", "  ,0.5,0.3", "\t,1,2")):
        path = tmp_path / f"blank{i}.csv"
        path.write_text(f"label,f1,f2\n1,0.5,0.5\n{row}\n")
        with pytest.raises(DatasetFormatError, match=f"^{re.escape(str(path))}: line 3 has a blank label$"):
            load_csv(path)


def test_csv_refuses_a_carriage_return_inside_a_line_naming_it(tmp_path):
    # a '\r' still in a line once its one trailing '\r' is stripped is
    # refused, naming the line and the supported endings; lone '\r' endings
    # (classic Mac OS) make the file one line, which read as a header with no
    # data rows before
    expected = r"line {} holds a '\\r' before its end; lines must end with '\\n' or '\\r\\n'$"
    for name, text, lineno in (("mac", b"label,f1,f2\rcat,1.0,2.0\rdog,-1.0,0.5\r", 1),
                               ("inner", b"label,f1,f2\r\ncat,1.0,2.0\r\ndog\r,-1.0,0.5\n", 3)):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text)
        with pytest.raises(DatasetFormatError, match=f"^{re.escape(str(path))}: "
                                                     + expected.format(lineno)):
            load_csv(path)


def test_episode_fingerprint_tracks_content():
    data = tiny_dataset()
    ep = sample_episode(data, 3, 2, 2, named_stream(4, "evaluation"))
    fp = ep.fingerprint()
    assert fp == ep.fingerprint()  # stable
    ep.query_x[0, 0] += 1e-9
    assert ep.fingerprint() != fp  # any content change shows up
