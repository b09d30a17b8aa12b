"""Linear ranking models: grade derivation, a pairwise hinge-loss trainer,
and a listwise coordinate-ascent trainer optimizing NDCG@10.

Both trainers are deterministic for a fixed (data, hyperparams, seed)
triple; identical runs serialize to identical bytes.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .corpus import read_json_file
from .evaluation import JudgmentSet
from .features import FeatureMatrix, FeatureSchema, SchemaError
from .passage import Passage, char_overlap

MODEL_VERSION = 1

# Grade buckets over the fraction of relevant characters in a passage.
_RFRAC_THRESHOLDS = (0.10, 0.25, 0.50, 0.75)

# Fixed line-search grid for coordinate ascent: multiplicative probes plus
# additive probes so a zero weight can leave the origin.
_CA_MULTIPLIERS = (0.0, 0.5, 0.8, 1.25, 2.0, -1.0)
_CA_STEPS = (0.05, 0.2, 1.0)


class TrainingError(ValueError):
    """Raised when the training data carries no usable signal."""


def bucket_grade(rfrac: float) -> int:
    """Map a relevant-character fraction in [0,1] to a 0..4 grade."""
    if not 0.0 <= rfrac <= 1.0:
        raise ValueError(f"rfrac must lie in [0,1], got {rfrac}")
    grade = 0
    for threshold in _RFRAC_THRESHOLDS:
        if rfrac >= threshold:
            grade += 1
    return grade


def passage_grade(passage: Passage, spans: Iterable[tuple[int, int]] | None) -> int:
    """The passage's grade from the relevant character spans of its document."""
    if not spans:
        return 0
    overlap, total = char_overlap(passage, spans)
    return bucket_grade(overlap / total) if total else 0


def passage_grades(
    judgments: JudgmentSet | None, query_id: str, passages_by_doc: Mapping[str, Sequence[Passage]]
) -> dict[str, int]:
    """Every passage's grade for the query: from its document's relevant
    character spans, or as judged by id (0 when unjudged) in the other
    passage modes; ``{}`` without judgments."""
    if judgments is None:
        return {}
    passages = [(d, p) for d, plist in passages_by_doc.items() for p in plist]
    if judgments.mode == "char_focused":
        spans_by_doc = judgments.char_spans.get(query_id, {})
        return {p.passage_id: passage_grade(p, spans_by_doc.get(d)) for d, p in passages}
    judged = judgments.grades.get(query_id, {})
    return {p.passage_id: judged.get(p.passage_id, 0) for _, p in passages}


@dataclass(frozen=True)
class LinearModel:
    """A weight vector over a schema, with training provenance."""

    schema: FeatureSchema
    weights: tuple[float, ...]
    trainer: str
    hyperparams: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.weights) != len(self.schema):
            raise SchemaError(
                f"{len(self.weights)} weights for schema {self.schema.name!r} "
                f"of length {len(self.schema)}"
            )

    def save(self, path: str | Path) -> None:
        payload = {
            "version": MODEL_VERSION,
            "trainer": self.trainer,
            "schema": {"name": self.schema.name, "features": list(self.schema.features)},
            "weights": list(self.weights),
            "hyperparams": self.hyperparams,
        }
        Path(path).write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )

    @classmethod
    def load(cls, path: str | Path) -> "LinearModel":
        data = read_json_file(Path(path), ValueError)
        if not isinstance(data, dict) or data.get("version") != MODEL_VERSION:
            raise ValueError(f'{path}: expected a JSON object with "version": {MODEL_VERSION}')
        try:
            meta, weights = data["schema"], data["weights"]
            if isinstance(meta, dict):  # a field it lacks is named as the model's own are
                meta = {"name": meta["name"], "features": meta["features"]}
            schema = FeatureSchema.from_json(meta, f'{path}: "schema"', ValueError)
            # Within float range; a bool is not a weight, nor NaN or an infinity.
            if not isinstance(weights, list) or not all(
                type(w) in (int, float) and abs(w) <= sys.float_info.max for w in weights
            ):
                raise ValueError(f'{path}: "weights": expected a list of finite numbers')
            if not (isinstance(data["trainer"], str) and isinstance(data["hyperparams"], dict)):
                raise ValueError(f'{path}: expected a "trainer" string and a "hyperparams" object')
            return cls(schema, tuple(weights), data["trainer"], data["hyperparams"])
        except KeyError as exc:
            raise ValueError(f"{path}: model file has no field {exc.args[0]!r}") from None
        except SchemaError as exc:  # duplicate feature names, or a weight count off
            raise ValueError(f"{path}: {exc}") from None


class TrainingSet:
    """Training data: one feature matrix and one grade per row for each query.

    Queries are kept in query-id order, and queries without rows are
    dropped; ``len()`` is the number of rows (training examples). A
    ``FeatureMatrix`` lists each item id once, so rows in item-id order
    are well defined. ``pairs(matrix, grades)`` is a query's
    :func:`grade_pairs`; a caller may pass one that keeps them.
    """

    def __init__(
        self, queries: Iterable[tuple[FeatureMatrix, Sequence[int]]], pairs: Callable | None = None
    ):
        kept = []
        for matrix, grades in queries:
            grades = np.asarray(grades, dtype=np.int64).reshape(-1)
            if len(grades) != len(matrix):
                raise ValueError(f"{len(grades)} grades for {len(matrix)} rows")
            if (grades < 0).any():
                raise ValueError(f"grade must be >= 0, got {int(grades.min())}")
            if len(matrix):
                kept.append((matrix, grades))
        kept.sort(key=lambda mg: mg[0].query_id)
        if any(m.schema != kept[0][0].schema for m, _ in kept):
            raise SchemaError("training examples mix feature schemas")
        self.queries: tuple[tuple[FeatureMatrix, np.ndarray], ...] = tuple(kept)
        self.pairs = pairs or (lambda matrix, grades: grade_pairs(matrix.item_ids, grades))

    def __len__(self) -> int:
        return sum(len(m) for m, _ in self.queries)

    def schema(self) -> FeatureSchema:
        if not self.queries:
            raise TrainingError("no training examples")
        return self.queries[0][0].schema

    def by_item(self):
        """Per query, (rows, item ids, grades) with rows in item-id order."""
        for matrix, grades in self.queries:
            order = sorted(range(len(matrix)), key=matrix.item_ids.__getitem__)
            yield (
                np.take(matrix.values, order, axis=0),
                [matrix.item_ids[i] for i in order],
                grades[order],
            )


def grade_pairs(item_ids: Sequence[str], grades) -> tuple[np.ndarray, np.ndarray]:
    """The row positions (hi, lo) of every pair of one query's rows with
    grade_hi > grade_lo: rows taken in item-id order, hi outer, lo inner."""
    order = np.array(sorted(range(len(item_ids)), key=item_ids.__getitem__), dtype=np.intp)
    g = np.asarray(grades)[order]
    hi, lo = np.nonzero(g[:, None] > g[None, :])
    return order[hi], order[lo]


def _difference_matrix(data: TrainingSet, max_pairs: int, seed: int) -> np.ndarray:
    """Within-query difference rows x_hi - x_lo over every query's
    :func:`grade_pairs`, queries in order; a seeded subsample of
    ``max_pairs`` of them, kept in order, when there are more.
    """
    pairs = [data.pairs(matrix, grades) for matrix, grades in data.queries]
    if not any(len(hi) for hi, _ in pairs):
        raise TrainingError("no training signal: every within-query pair has equal grades")
    # Row positions in the queries' matrices stacked in order.
    offsets = np.cumsum([0] + [len(m) for m, _ in data.queries]).tolist()
    hi = np.concatenate([h + o for (h, _), o in zip(pairs, offsets)])
    lo = np.concatenate([l + o for (_, l), o in zip(pairs, offsets)])
    if len(hi) > max_pairs:
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(len(hi), size=max_pairs, replace=False))
        hi, lo = hi[keep], lo[keep]
    x = np.concatenate([m.values for m, _ in data.queries])
    diffs = x[hi]
    diffs -= x[lo]
    return diffs


def _misordered(margins: np.ndarray) -> int:
    # Counted as not > 0, so a NaN margin is misordered too.
    return len(margins) - np.count_nonzero(margins > 0.0)


@dataclass(frozen=True)
class Setting:
    """A trainer setting: its default and the bound ``op bound`` a value must meet
    (a float must be finite too; NaN meets none). A run tunes it over config grid
    ``grid`` if named, else reads ``trainer_params``; ``flag``: `train` has a flag."""

    name: str
    default: int | float
    op: str  # ">=" or ">"
    bound: int
    grid: str | None = None
    flag: bool = True

    def check(self, value) -> None:
        """Raise ValueError unless ``value`` meets the bound."""
        finite = isinstance(self.default, float)
        met = value > self.bound if self.op == ">" else value >= self.bound
        if not met or finite and not value < math.inf:
            raise ValueError(
                f"{self.name} must be {'finite and ' * finite}{self.op} {self.bound}, got {value}"
            )


# Each trainer by name: its function's name, and its settings in `psgrank train`'s
# flag order. Outside the trainers' signatures, only this states their defaults.
TRAINERS = {
    "pairwise_hinge": ("train_pairwise", (
        Setting("c", 0.01, ">=", 0, grid="svm_c"),
        Setting("epochs", 200, ">=", 1),
        Setting("learning_rate", 0.5, ">", 0),
        Setting("max_pairs", 10**6, ">=", 1, flag=False),
    )),
    "coordinate_ascent": ("train_coordinate_ascent", (
        Setting("restarts", 2, ">=", 0),
        Setting("max_passes", 25, ">=", 0),
    )),
}

# The check of each setting, by setting name.
PARAM_CHECKS = {s.name: s.check for _, settings in TRAINERS.values() for s in settings}


def _check_settings(**settings) -> None:
    """Raise ValueError for the first of ``settings`` its check rejects."""
    for name, value in settings.items():
        PARAM_CHECKS[name](value)


def train_pairwise(
    data: TrainingSet,
    c: float = 0.01,
    epochs: int = 200,
    seed: int = 0,
    learning_rate: float = 0.5,
    max_pairs: int = 10**6,
) -> LinearModel:
    """Hinge-loss pairwise trainer (0.5*||w||^2 + c * sum hinge margins).

    Full-batch subgradient descent with a 1/(1+t) decaying step; the model
    returned is the epoch with the fewest misordered training pairs (ties
    favor the earlier epoch), among those whose weights did not overflow; a
    NaN margin counts as misordered. Raises ValueError for a setting that
    its :data:`TRAINERS` entry rejects, and TrainingError when no
    within-query pair of distinct grades exists, or when the weights
    overflow before any epoch improves on the zero start. One product
    ``diffs @ w`` per epoch serves both the error count of the new
    weights and the next epoch's hinge violations.

    Training stops at the first epoch that misorders no pair. The best
    epoch is replaced only by one with strictly fewer misordered pairs,
    and no count is below 0, so every later epoch would leave it the best:
    the weights equal those of running all ``epochs``, bit for bit.
    """
    _check_settings(c=c, learning_rate=learning_rate, epochs=epochs, max_pairs=max_pairs)
    schema = data.schema()
    diffs = _difference_matrix(data, max_pairs, seed)
    w = np.zeros(len(schema))
    # w is rebound every epoch, never changed in place, so best_w needs no copy.
    best_w = start = w
    margins = diffs @ w
    best_err = _misordered(margins)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(epochs):
            # Gathered by index: a boolean mask's rows, order and sum, read faster.
            grad = w - c * diffs.take(np.flatnonzero(margins < 1.0), axis=0).sum(axis=0)
            w = w - (learning_rate / (1.0 + t)) * grad
            margins = diffs @ w
            if not np.isfinite(w).all():
                # inf and NaN absorb every later step: no later epoch is a model.
                if best_w is start:
                    raise TrainingError(
                        f"learning_rate {learning_rate!r} overflows the weights"
                        " before any epoch improves on the zero start"
                    )
                break
            err = _misordered(margins)
            if err < best_err:
                best_err, best_w = err, w
                if not err:
                    break
    return LinearModel(
        schema=schema,
        weights=tuple(float(x) for x in best_w),
        trainer="pairwise_hinge",
        hyperparams=dict(
            c=c, epochs=epochs, learning_rate=learning_rate, max_pairs=max_pairs, seed=seed
        ),
    )


def _gains(grades) -> np.ndarray:
    """2^grade - 1 per grade, exactly (a power of two less one)."""
    return np.ldexp(1.0, np.asarray(grades, dtype=np.int64)) - 1.0


def _dcg_rows(gains: np.ndarray, k: int) -> np.ndarray:
    """DCG@k of each row of a gain matrix in rank order: gain / log2(r + 1)
    over the first k ranks, added left to right one rank at a time. A row
    padded with gain 0 keeps its sum."""
    discounts = np.array([math.log2(r + 1) for r in range(1, min(k, gains.shape[1]) + 1)])
    if not len(discounts):
        return np.zeros(len(gains))
    # cumsum adds left to right; its last column is the sum.
    return np.cumsum(gains[:, : len(discounts)] / discounts, axis=1)[:, -1]


def _ndcg_rows(dcg: np.ndarray, ideal: np.ndarray) -> np.ndarray:
    """dcg / ideal per row, 0 where the ideal DCG is 0."""
    return np.divide(dcg, ideal, out=np.zeros_like(dcg), where=ideal != 0.0)


def ndcg_at_k(ranked, grades: Mapping[str, int], k: int = 10) -> float:
    """NDCG@k with 2^grade - 1 gains; 0 when nothing relevant is judged.

    ``ranked`` may be a RankedList or any iterable of (item_id, score).
    The ideal ranking considers every item in ``grades``. It is row 0 of
    the DCG code the coordinate-ascent objective runs.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    in_order = _gains([[grades.get(item_id, 0) for item_id, _ in ranked]])
    ideal = _gains([sorted(grades.values(), reverse=True)])
    return float(_ndcg_rows(_dcg_rows(in_order, k), _dcg_rows(ideal, k))[0])


def score(model: LinearModel, matrix: FeatureMatrix):
    """Rank one query's rows by w . x; ties break by ascending item id.

    The rows are scored by one ``np.vecdot``, whose float64 loop calls the
    1-D dot kernel per row, so each score has the bits of ``np.dot(w, row)``;
    a matrix product (``values @ w``) can round a row differently in the
    last bit, and runs write scores in full.
    """
    from .rank import RankedList

    if not len(matrix):
        raise ValueError("no vectors to score")
    if matrix.schema != model.schema:
        raise SchemaError(
            f"vector schema {matrix.schema.name!r} does not match model "
            f"schema {model.schema.name!r}"
        )
    scores = np.vecdot(matrix.values, np.array(model.weights)).tolist()
    return RankedList.from_scores(matrix.query_id, zip(matrix.item_ids, scores))


def _ndcg_objective(data: TrainingSet, k: int):
    """Mean NDCG@k over the training queries, as a function of the weights.

    The gains, padded per query with gain 0, and each query's ideal DCG are
    computed once. An evaluation writes each query's ``x @ w`` into a row
    padded with -inf, ranks every row with one stable argsort of the
    negated scores (rows are in item-id order, so ties break by id), and
    adds the per-query NDCGs left to right.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    queries = list(data.by_item())
    matrices = [x for x, _, _ in queries]
    grades = np.zeros((len(queries), max(map(len, matrices))), dtype=np.int64)
    for row, (_, _, g) in zip(grades, queries):
        row[: len(g)] = g
    gains = _gains(grades)
    ideal = _dcg_rows(-np.sort(-gains, axis=1), k)
    raw = np.full(grades.shape, -np.inf)

    def mean_ndcg(weights: np.ndarray) -> float:
        for row, x in zip(raw, matrices):
            row[: len(x)] = x @ weights
        order = np.argsort(-raw, axis=1, kind="stable")[:, :k]
        ndcg = _ndcg_rows(_dcg_rows(np.take_along_axis(gains, order, axis=1), k), ideal)
        return float(np.cumsum(ndcg)[-1] / len(ndcg))

    return mean_ndcg


def train_coordinate_ascent(
    data: TrainingSet,
    restarts: int = 2,
    seed: int = 0,
    max_passes: int = 25,
    k: int = 10,
    trace: list | None = None,
) -> LinearModel:
    """Listwise trainer: cyclic per-coordinate line search on mean NDCG@k.

    Candidate moves come from a fixed multiplicative/additive grid and a
    step is accepted only when the objective strictly increases, so the
    accepted-objective trajectory is monotone. Restart 0 starts from
    uniform weights, later restarts from seeded random directions; the
    best restart wins (ties favor the earlier restart). ``max_passes=0``
    returns the uniform initial weights unchanged. When ``trace`` is given,
    (restart, objective) is appended at the start and after every accepted
    step. Every objective evaluation is one array pass over all training
    queries (see :func:`_ndcg_objective`), equal to :func:`ndcg_at_k` per
    query, ranked by score with ties by ascending id, and averaged. Raises
    ValueError for a setting that its :data:`TRAINERS` entry rejects.
    """
    _check_settings(restarts=restarts, max_passes=max_passes)
    schema = data.schema()
    if all(len(set(g.tolist())) < 2 for _, g in data.queries):
        raise TrainingError("no training signal: every within-query pair has equal grades")
    objective = _ndcg_objective(data, k)

    n = len(schema)
    rng = np.random.default_rng(seed)
    best_w = None
    best_obj = -1.0
    # Without passes, restart 0's uniform start is the model.
    for restart in range(max(restarts, 1) if max_passes else 1):
        if restart == 0:
            w = np.full(n, 1.0 / n)
        else:
            w = rng.standard_normal(n)
            norm = np.linalg.norm(w)
            w = w / norm if norm > 0 else np.full(n, 1.0 / n)
        obj = objective(w)
        if trace is not None:
            trace.append((restart, obj))
        for _ in range(max_passes):
            improved = False
            for coord in range(n):
                current = w[coord]
                candidates = [current * m for m in _CA_MULTIPLIERS]
                candidates += [current + s for s in _CA_STEPS]
                candidates += [current - s for s in _CA_STEPS]
                best_cand = None
                best_cand_obj = obj
                for cand in candidates:
                    if cand == current:
                        continue
                    w[coord] = cand
                    cand_obj = objective(w)
                    if cand_obj > best_cand_obj:
                        best_cand_obj = cand_obj
                        best_cand = cand
                if best_cand is not None:
                    w[coord] = best_cand
                    obj = best_cand_obj
                    improved = True
                    if trace is not None:
                        trace.append((restart, obj))
                else:
                    w[coord] = current
            if not improved:
                break
        if obj > best_obj:
            best_obj = obj
            best_w = w.copy()
    return LinearModel(
        schema=schema,
        weights=tuple(float(x) for x in best_w),
        trainer="coordinate_ascent",
        hyperparams={"restarts": restarts, "max_passes": max_passes, "k": k, "seed": seed},
    )
