"""Linear ranking models: grade derivation, a pairwise hinge-loss trainer,
and a listwise coordinate-ascent trainer optimizing NDCG@10.

Both trainers are deterministic for a fixed (data, hyperparams, seed)
triple; identical runs serialize to identical bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

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
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if payload.get("version") != MODEL_VERSION:
            raise ValueError(f"unsupported model version: {payload.get('version')}")
        schema = FeatureSchema(payload["schema"]["name"], tuple(payload["schema"]["features"]))
        return cls(
            schema=schema,
            weights=tuple(payload["weights"]),
            trainer=payload["trainer"],
            hyperparams=payload["hyperparams"],
        )


class TrainingSet:
    """Training data: one feature matrix and one grade per row for each query.

    Queries are kept in query-id order, and queries without rows are
    dropped; ``len()`` is the number of rows (training examples). A
    ``FeatureMatrix`` lists each item id once, so rows in item-id order
    are well defined.
    """

    def __init__(self, queries: Iterable[tuple[FeatureMatrix, Sequence[int]]]):
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


def _difference_matrix(data: TrainingSet, max_pairs: int, seed: int) -> np.ndarray:
    """Within-query difference rows x_i - x_j for grade_i > grade_j.

    Per query, in item-id order, the rows are the (hi, lo) pairs in
    row-major order: hi outer, lo inner.
    """
    diffs = []
    for x, _, g in data.by_item():
        hi, lo = np.nonzero(g[:, None] > g[None, :])
        diffs.append(x[hi] - x[lo])
    mat = np.concatenate(diffs) if diffs else np.zeros((0, 0))
    if not len(mat):
        raise TrainingError("no training signal: every within-query pair has equal grades")
    if len(mat) > max_pairs:
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(len(mat), size=max_pairs, replace=False))
        mat = mat[keep]
    return mat


def pairwise_error_count(weights: np.ndarray, diffs: np.ndarray) -> int:
    """Pairs not strictly ordered correctly by the weight vector."""
    return _misordered(diffs @ weights)


def _misordered(margins: np.ndarray) -> int:
    # Counted as not > 0, so a NaN margin is misordered too.
    return len(margins) - np.count_nonzero(margins > 0.0)


def check_pairwise_params(
    c: float = 0.01, epochs: int = 200, learning_rate: float = 0.5, max_pairs: int = 10**6
) -> None:
    """The hinge trainer's settings: ``c`` finite and >= 0, ``learning_rate``
    finite and > 0, ``epochs`` and ``max_pairs`` >= 1. Raises ValueError."""
    if not 0.0 <= c < math.inf:  # NaN too
        raise ValueError(f"c must be finite and >= 0, got {c}")
    if not 0.0 < learning_rate < math.inf:
        raise ValueError(f"learning_rate must be finite and > 0, got {learning_rate}")
    if not epochs >= 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if not max_pairs >= 1:
        raise ValueError(f"max_pairs must be >= 1, got {max_pairs}")


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
    NaN margin counts as misordered. Raises ValueError for settings that
    :func:`check_pairwise_params` rejects, and TrainingError when no
    within-query pair of distinct grades exists, or when the weights
    overflow before any epoch improves on the zero start. One product
    ``diffs @ w`` per epoch serves both the error count of the new
    weights and the next epoch's hinge violations.

    Training stops at the first epoch that misorders no pair. The best
    epoch is replaced only by one with strictly fewer misordered pairs,
    and no count is below 0, so every later epoch would leave it the best:
    the weights equal those of running all ``epochs``, bit for bit.
    """
    check_pairwise_params(c, epochs, learning_rate, max_pairs)
    schema = data.schema()
    diffs = _difference_matrix(data, max_pairs, seed)
    w = np.zeros(len(schema))
    # w is rebound every epoch, never changed in place, so best_w needs no copy.
    best_w = start = w
    margins = diffs @ w
    best_err = _misordered(margins)
    for t in range(epochs):
        with np.errstate(over="ignore", invalid="ignore"):
            grad = w - c * diffs[margins < 1.0].sum(axis=0)
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
        hyperparams={
            "c": c,
            "epochs": epochs,
            "learning_rate": learning_rate,
            "max_pairs": max_pairs,
            "seed": seed,
        },
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

    Each row is its own ``np.dot(w, row)``: a matrix product can round a
    row's score differently in the last bit, and runs write scores in full.
    """
    from .rank import RankedList

    if not len(matrix):
        raise ValueError("no vectors to score")
    if matrix.schema != model.schema:
        raise SchemaError(
            f"vector schema {matrix.schema.name!r} does not match model "
            f"schema {model.schema.name!r}"
        )
    w = np.array(model.weights)
    scores = {
        item_id: float(np.dot(w, row)) for item_id, row in zip(matrix.item_ids, matrix.values)
    }
    return RankedList.from_scores(matrix.query_id, scores)


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


def check_coordinate_ascent_params(restarts: int = 2, max_passes: int = 25) -> None:
    """The coordinate-ascent trainer's settings: ``restarts`` and
    ``max_passes`` >= 0. Raises ValueError."""
    if not restarts >= 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")
    if not max_passes >= 0:
        raise ValueError(f"max_passes must be >= 0, got {max_passes}")


# The check of the trainer each setting belongs to, by setting name.
PARAM_CHECKS = {
    **dict.fromkeys(("c", "epochs", "learning_rate", "max_pairs"), check_pairwise_params),
    **dict.fromkeys(("restarts", "max_passes"), check_coordinate_ascent_params),
}


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
    ValueError for settings that :func:`check_coordinate_ascent_params`
    rejects.
    """
    check_coordinate_ascent_params(restarts, max_passes)
    schema = data.schema()
    if all(len(set(g.tolist())) < 2 for _, g in data.queries):
        raise TrainingError("no training signal: every within-query pair has equal grades")
    objective = _ndcg_objective(data, k)

    n = len(schema)
    rng = np.random.default_rng(seed)
    best_w = None
    best_obj = -1.0
    for restart in range(max(restarts, 1)):
        if restart == 0:
            w = np.full(n, 1.0 / n)
        else:
            w = rng.standard_normal(n)
            norm = np.linalg.norm(w)
            w = w / norm if norm > 0 else np.full(n, 1.0 / n)
        obj = objective(w)
        if trace is not None:
            trace.append((restart, obj))
        if max_passes == 0 and restart == 0:
            return LinearModel(
                schema=schema,
                weights=tuple(float(x) for x in w),
                trainer="coordinate_ascent",
                hyperparams={"restarts": restarts, "max_passes": 0, "k": k, "seed": seed},
            )
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
