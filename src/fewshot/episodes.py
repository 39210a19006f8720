"""Datasets and N-way K-shot episode sampling.

A Dataset stores feature columns with integer-or-string class ids and a
class index (one integer array of column indices per class, built once);
splits are class-level (train/val/test classes are disjoint) because
few-shot evaluation is about unseen classes, not unseen examples.
Episodes relabel their sampled classes to 1..N and keep support and query
sets disjoint by construction.  An episode records the split columns it
drew (``Episode.columns``, support then queries), so validation and
evaluation can score it from an embedding of the whole split instead of
embedding its features again.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from itertools import accumulate, chain

import numpy as np

from . import linalg
from .errors import ConfigError, DatasetFormatError, SamplingError


@dataclass
class Dataset:
    name: str
    features: np.ndarray          # D x count, float64
    labels: list                  # per-column class id
    split: str = "all"            # all | train | val | test
    class_to_indices: dict = field(init=False)

    def __post_init__(self):
        self.features = linalg.as_matrix(self.features)
        if self.features.shape[1] != len(self.labels):
            raise DatasetFormatError(
                f"{self.name}: {self.features.shape[1]} feature columns but "
                f"{len(self.labels)} labels")
        # One index array per class, from a stable sort of per-column class
        # codes: growing a list per class costs more than the rest of set-up.
        # Keys go in ``class_ids`` order, so that property is a plain copy.
        ids = sorted(dict.fromkeys(self.labels), key=str)
        code = {c: j for j, c in enumerate(ids)}
        codes = np.fromiter(map(code.__getitem__, self.labels), np.intp,
                            len(self.labels))
        order = np.argsort(codes, kind="stable")
        ends = np.cumsum(np.bincount(codes, minlength=len(ids))).tolist()
        self.class_to_indices = {c: order[start:end] for c, start, end
                                 in zip(ids, [0] + ends[:-1], ends)}

    @property
    def dim(self) -> int:
        return self.features.shape[0]

    @property
    def n_examples(self) -> int:
        return self.features.shape[1]

    @property
    def class_ids(self) -> list:
        """Class ids sorted by their text."""
        return list(self.class_to_indices)

    def eligible_classes(self, min_examples: int) -> list:
        return [c for c in self.class_ids
                if len(self.class_to_indices[c]) >= min_examples]

    @classmethod
    def _grouped(cls, name: str, features: np.ndarray, class_ids: list,
                 sizes: list, split: str = "all") -> "Dataset":
        """A dataset whose columns are grouped by class: distinct
        ``class_ids`` in column order, ``sizes[i]`` consecutive columns each.
        Its labels and class index equal what ``Dataset(name, features,
        labels, split)`` builds, at a cost per class, not per column."""
        data = cls.__new__(cls)
        data.name, data.features, data.split = name, features, split
        data.labels = list(chain.from_iterable([c] * n for c, n in zip(class_ids, sizes)))
        runs = sorted(zip(class_ids, accumulate(sizes, initial=0), sizes),
                      key=lambda run: str(run[0]))
        data.class_to_indices = {c: np.arange(start, start + n, dtype=np.intp)
                                 for c, start, n in runs}
        return data

    def subset_by_classes(self, class_ids, split: str) -> "Dataset":
        """The columns of ``class_ids`` (each taken once), as a new dataset
        named ``split``."""
        ids = sorted(dict.fromkeys(class_ids), key=str)
        keep = np.concatenate([np.empty(0, np.intp)] +
                              [self.class_to_indices[c] for c in ids])
        # take, not features[:, keep]: that gather is Fortran-ordered and
        # would need a second copy to be C-contiguous
        return Dataset._grouped(self.name, self.features.take(keep, axis=1), ids,
                                [len(self.class_to_indices[c]) for c in ids], split)


@dataclass
class Episode:
    """One few-shot task; classes are relabeled to 1..N.  ``x`` holds the
    support columns, then the queries; ``support_x`` and ``query_x`` are
    views of it.  ``columns`` is None for an episode built from raw
    features rather than sampled."""

    n_way: int
    k_shot: int
    q_queries: int
    x: np.ndarray           # D x (N*K + N*Q), class 1's columns first in each part
    support_y: np.ndarray   # (N*K,) values in 1..N
    query_y: np.ndarray     # (N*Q,) values in 1..N
    relabel: dict           # original class id -> 1..N
    columns: np.ndarray | None = None   # split columns of x

    @property
    def support_x(self) -> np.ndarray:
        return self.x[:, : self.n_way * self.k_shot]

    @property
    def query_x(self) -> np.ndarray:
        return self.x[:, self.n_way * self.k_shot :]

    def fingerprint(self) -> str:
        """Content hash used to assert that paired runs saw identical episodes."""
        h = hashlib.sha256()
        h.update(f"{self.n_way},{self.k_shot},{self.q_queries};".encode())
        h.update(",".join(str(k) for k in sorted(self.relabel, key=str)).encode())
        for arr in (self.support_x, self.support_y.astype(np.int64),
                    self.query_x, self.query_y.astype(np.int64)):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()


def check_sampleable(dataset: Dataset, n_way: int, need: int) -> list:
    """The classes with >= ``need`` examples; ``SamplingError`` if under ``n_way``."""
    eligible = dataset.eligible_classes(need)
    if len(eligible) < n_way:
        raise SamplingError(
            f"{dataset.name}: need {n_way} classes with >= {need} examples, "
            f"only {len(eligible)} eligible")
    return eligible


def sample_episode(dataset: Dataset, n_way: int, k_shot: int, q_queries: int,
                   rng: np.random.Generator) -> Episode:
    """Sample classes, then K+Q distinct examples per class, all uniformly
    without replacement. Deterministic given the rng state.

    The first K draws of a class are its support, the rest its queries.
    The features are gathered with one ``take`` of the split's columns
    into the episode's ``x``, which is C-contiguous, so the encoder reads
    it without a copy (``features[:, columns]`` would be Fortran-ordered).
    """
    need = k_shot + q_queries
    eligible = check_sampleable(dataset, n_way, need)
    picked = rng.choice(len(eligible), size=n_way, replace=False)
    nk = n_way * k_shot
    columns = np.empty(n_way * need, dtype=np.intp)
    support_cols = columns[:nk].reshape(n_way, k_shot)
    query_cols = columns[nk:].reshape(n_way, q_queries)
    relabel = {}
    for row, ci in enumerate(picked):
        class_id = eligible[ci]
        relabel[class_id] = row + 1
        pool = dataset.class_to_indices[class_id]
        chosen = pool[rng.choice(len(pool), size=need, replace=False)]
        support_cols[row] = chosen[:k_shot]
        query_cols[row] = chosen[k_shot:]
    labels = np.arange(1, n_way + 1, dtype=np.int64)
    return Episode(n_way, k_shot, q_queries, dataset.features.take(columns, axis=1),
                   labels.repeat(k_shot), labels.repeat(q_queries),
                   relabel, columns)


# A drawn feature is a center, uniform over a range of 2 spread, plus the
# offset, plus within_std times a standard normal draw, which numpy's
# ziggurat sampler keeps below 13 in magnitude.  Bounding spread, |offset|
# and 16 within_std by a quarter of the float64 maximum keeps the range and
# the sum finite.
_DRAW_MAX = float(np.finfo(np.float64).max) / 4


def check_synth(n_classes: int, per_class: int, dim: int, spread: float = 1.0,
                within_std: float = 1.0, offset: float = 0.0) -> None:
    """Refuse a ``synth_gaussian`` argument out of range (see there), or
    sizes whose features one numpy array cannot hold, naming the largest."""
    for what, value, floor in (("n_classes", n_classes, 2), ("per_class", per_class, 1),
                               ("dim", dim, 1)):
        if value < floor:
            raise ConfigError(f"{what} must be >= {floor}, got {value}")
    if n_classes * dim * per_class > linalg.MAX_FLOATS:
        what, value = max((("n_classes", n_classes), ("per_class", per_class), ("dim", dim)),
                          key=lambda pair: pair[1])
        raise ConfigError(f"{what} {value} asks for {n_classes * dim * per_class} features, "
                          f"more than a numpy array holds ({linalg.MAX_FLOATS})")
    for what, value, low, high in (("spread", spread, 0.0, _DRAW_MAX),
                                   ("within_std", within_std, 0.0, _DRAW_MAX / 16),
                                   ("offset", offset, -_DRAW_MAX, _DRAW_MAX)):
        if not low <= value <= high:
            raise ConfigError(f"{what} must be finite and within [{low:.4g}, {high:.4g}], "
                              f"got {value}")


def synth_gaussian(seed, n_classes: int, per_class: int, dim: int,
                   spread: float = 1.0, within_std: float = 1.0,
                   offset: float = 0.0, name: str = "synth") -> Dataset:
    """Isotropic Gaussian blobs around uniformly drawn class centers.  An
    argument out of range raises ``ConfigError`` (``check_synth``) with a
    message that starts with its name and gives the value: "n_classes must
    be >= 2, got 1", "within_std must be finite and within [0, 2.809e+306],
    got nan".  ``spread``, ``within_std`` and ``offset`` are bounded so that
    every drawn feature is finite.

    Centers are uniform in [-spread, spread]^dim, then shifted by
    ``offset`` in every coordinate (the domain-shift knob: the same seed
    with a different offset yields translated copies of the same classes).

    The draw order is a contract, since a seed's features (and so the
    episode fingerprints in ``perfbench/reference.json``) depend on it: the
    D x n_classes centers row-major, then the noise class by class, each
    class's D x per_class block row-major.  Class c owns the c-th block of
    per_class columns.
    """
    check_synth(n_classes, per_class, dim, spread, within_std, offset)
    rng = seed if isinstance(seed, np.random.Generator) else linalg.rng_from_seed(seed)
    centers = rng.uniform(-spread, spread, size=(dim, n_classes)) + offset
    blocks = rng.standard_normal((n_classes, dim, per_class))
    blocks *= within_std
    blocks += centers.T[:, :, None]
    features = np.ascontiguousarray(blocks.transpose(1, 0, 2)).reshape(dim, -1)
    return Dataset._grouped(name, features, list(range(1, n_classes + 1)),
                            [per_class] * n_classes)


def split_classes(dataset: Dataset, fractions, seed) -> tuple[Dataset, Dataset, Dataset]:
    """Class-level partition into (train, val, test).

    ``fractions`` is (train, val, test) summing to 1. Sizes are
    floor(val * C) and floor(test * C); the remainder goes to train.
    """
    if len(fractions) != 3:
        raise ConfigError(f"fractions must be (train, val, test), got {fractions}")
    f_train, f_val, f_test = (float(f) for f in fractions)
    if min(f_train, f_val, f_test) < 0.0 or not abs(f_train + f_val + f_test - 1.0) <= 1e-9:
        raise ConfigError(f"fractions must be nonnegative and sum to 1, got {fractions}")
    classes = dataset.class_ids
    rng = seed if isinstance(seed, np.random.Generator) else linalg.rng_from_seed(seed)
    order = [classes[i] for i in rng.permutation(len(classes))]
    n_val = int(len(classes) * f_val)
    n_test = int(len(classes) * f_test)
    val_ids = order[:n_val]
    test_ids = order[n_val : n_val + n_test]
    train_ids = order[n_val + n_test :]
    return (dataset.subset_by_classes(train_ids, "train"),
            dataset.subset_by_classes(val_ids, "val"),
            dataset.subset_by_classes(test_ids, "test"))


# -- CSV ingestion -----------------------------------------------------------
#
# Format: one row per example, label,feat_1,...,feat_D, with an optional
# header line.  Line 1 is a header exactly when one of its feature fields
# does not parse as a float (``save_csv`` writes label,f1,...,fD).  A label
# is never blank; it is an int exactly when it is an int's own text (``7``,
# not ``07``, ``+7`` or ``7_0``), else a string.  Features must be finite.
# UTF-8, '\n' or '\r\n' line endings (only '\n' ends a row: ``str.splitlines``
# would also break inside a field, at a form feed or '\u2028'; a '\r' left
# inside a line, as in a file with lone '\r' endings, is refused), '.'
# decimal separator.


def load_csv(path) -> Dataset:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = [ln[:-1] if ln.endswith("\r") else ln
                     for ln in fh.read().split("\n")]
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    for lineno, line in enumerate(lines, start=1):
        if "\r" in line:
            raise DatasetFormatError(f"{path}: line {lineno} holds a '\\r' before its end; "
                                     "lines must end with '\\n' or '\\r\\n'")
    if not any(ln.strip() for ln in lines):
        raise DatasetFormatError(f"{path}: file is empty")
    first = lines[0].split(",")
    dim = len(first) - 1
    if dim < 1:
        raise DatasetFormatError(f"{path}: line 1 must hold a label and at least one feature")
    start = 1 if all(_is_float(tok) for tok in first[1:]) else 2
    columns = []
    labels = []
    for lineno, line in enumerate(lines[start - 1:], start=start):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != dim + 1:
            raise DatasetFormatError(
                f"{path}: line {lineno} has {len(parts)} fields, expected {dim + 1}")
        raw_label = parts[0].strip()
        if not raw_label:
            raise DatasetFormatError(f"{path}: line {lineno} has a blank label")
        label = int(raw_label) if _is_int(raw_label) else raw_label
        feats = np.empty(dim)
        for j, tok in enumerate(parts[1:]):
            try:
                feats[j] = float(tok)
            except ValueError:
                raise DatasetFormatError(
                    f"{path}: line {lineno} has non-numeric feature {tok.strip()!r}"
                ) from None
            if not math.isfinite(feats[j]):
                raise DatasetFormatError(
                    f"{path}: line {lineno} has non-finite feature {tok.strip()!r}")
        columns.append(feats)
        labels.append(label)
    if not columns:
        raise DatasetFormatError(f"{path}: no data rows")
    return Dataset(str(path), np.column_stack(columns), labels)


def save_csv(dataset: Dataset, path) -> None:
    """Write ``dataset`` with a ``label,f1,...,fD`` header.  A dataset that
    ``load_csv`` would not read back with the same classes is refused with
    ``DatasetFormatError`` before the file is opened: a label's text must be
    non-blank, hold no ',', '\\n', '\\r' or lone surrogate (which UTF-8
    cannot encode) and carry no padding, no two class ids may share a text
    (``7`` and ``"7"``), and the features must be finite, with at least one
    row and one column."""
    texts = {}
    for c in dataset.class_ids:
        text = str(c)
        if not text or text != text.strip() or any(
                ch in ",\n\r" or "\ud800" <= ch <= "\udfff" for ch in text):
            raise DatasetFormatError(
                f"{dataset.name}: label {text!r} would not load back from a CSV as its "
                "own class; a label must be non-blank, unpadded and hold no ',', '\\n', "
                "'\\r' or lone surrogate")
        if text in texts:
            raise DatasetFormatError(
                f"{dataset.name}: labels {texts[text]!r} and {c!r} would load back from a "
                "CSV as one class")
        texts[text] = c
    dim = dataset.dim
    if dataset.features.size == 0 or not np.isfinite(dataset.features).all():
        raise DatasetFormatError(
            f"{dataset.name}: its {dim} x {dataset.n_examples} features would not load back "
            "from a CSV; they must be finite, with at least one row and one column")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("label," + ",".join(f"f{j + 1}" for j in range(dim)) + "\n")
        for i in range(dataset.n_examples):
            row = ",".join(repr(float(v)) for v in dataset.features[:, i])
            fh.write(f"{dataset.labels[i]},{row}\n")


def _is_float(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def _is_int(tok: str) -> bool:
    try:
        return str(int(tok)) == tok
    except ValueError:
        return False
