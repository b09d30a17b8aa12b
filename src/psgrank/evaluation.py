"""Retrieval effectiveness measures, significance testing, and CV plans.

Document runs are scored with average precision and precision@k over
graded qrels (grade >= 1 counts as relevant, TREC convention). Focused
passage runs are scored character-wise: retrieved characters are
deduplicated per (query, document), and interpolated precision iP[x] is
the best precision at any rank reaching recall x, averaged over 101
evenly spaced recall points for MAiP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import text_lines
from .index import first_occurrences, float_sum
from .passage import merge_intervals
from .rank import RankedList

MAIP_RECALL_POINTS = tuple(i / 100.0 for i in range(101))

# Tolerance of the continued-fraction incomplete beta used for the
# Student t CDF.
_BETACF_EPS = 1e-10
_BETACF_MAX_ITER = 300


class JudgmentError(ValueError):
    """Malformed qrels input or mode mismatch."""


@dataclass
class JudgmentSet:
    """Document-level graded and passage-level character/sentence judgments."""

    mode: str  # doc_graded | char_focused | sentence_binary
    grades: dict[str, dict[str, int]]
    char_spans: dict[str, dict[str, list[tuple[int, int]]]]

    def __post_init__(self):
        if self.mode not in QRELS_LOADERS:
            raise JudgmentError(f"unknown judgment mode: {self.mode!r}")

    def grade(self, query_id: str, item_id: str) -> int:
        return self.grades.get(query_id, {}).get(item_id, 0)

    def is_relevant(self, query_id: str, item_id: str) -> bool:
        return self.grade(query_id, item_id) >= 1

    def relevant_count(self, query_id: str) -> int:
        return sum(1 for g in self.grades.get(query_id, {}).values() if g >= 1)

    def has_judgments(self, query_id: str) -> bool:
        if self.mode == "char_focused":
            return bool(self.char_spans.get(query_id))
        return self.relevant_count(query_id) > 0


def _qrels_int(path: str | Path, lineno: int, field: str) -> int:
    try:
        return int(field)
    except ValueError:
        raise JudgmentError(f"{path}:{lineno}: not an integer: {field!r}") from None


def load_doc_qrels(path: str | Path) -> JudgmentSet:
    """TREC format: 'query_id 0 doc_id grade'."""
    grades: dict[str, dict[str, int]] = {}
    for lineno, line in text_lines(path, JudgmentError):
        parts = line.split()
        if len(parts) != 4:
            raise JudgmentError(f"{path}:{lineno}: expected 'query_id 0 doc_id grade'")
        qid, _, doc_id, grade = parts
        g = _qrels_int(path, lineno, grade)
        if g < 0:
            raise JudgmentError(f"{path}:{lineno}: negative grade")
        grades.setdefault(qid, {})[doc_id] = g
    return JudgmentSet(mode="doc_graded", grades=grades, char_spans={})


def load_char_qrels(path: str | Path) -> JudgmentSet:
    """TSV format: query_id<TAB>doc_id<TAB>char_start<TAB>char_end."""
    spans: dict[str, dict[str, list[tuple[int, int]]]] = {}
    for lineno, line in text_lines(path, JudgmentError):
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 4:
            raise JudgmentError(
                f"{path}:{lineno}: expected query_id<TAB>doc_id<TAB>start<TAB>end"
            )
        qid, doc_id, start, end = parts
        s, e = _qrels_int(path, lineno, start), _qrels_int(path, lineno, end)
        if e <= s:
            raise JudgmentError(f"{path}:{lineno}: empty or inverted span")
        spans.setdefault(qid, {}).setdefault(doc_id, []).append((s, e))
    return JudgmentSet(mode="char_focused", grades={}, char_spans=spans)


def load_sentence_qrels(path: str | Path) -> JudgmentSet:
    """TSV format: query_id<TAB>sentence_passage_id<TAB>grade (binary)."""
    grades: dict[str, dict[str, int]] = {}
    for lineno, line in text_lines(path, JudgmentError):
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 3:
            raise JudgmentError(f"{path}:{lineno}: expected query_id<TAB>passage_id<TAB>grade")
        qid, pid, grade = parts
        g = _qrels_int(path, lineno, grade)
        if g not in (0, 1):
            raise JudgmentError(f"{path}:{lineno}: sentence judgments are binary")
        grades.setdefault(qid, {})[pid] = g
    return JudgmentSet(mode="sentence_binary", grades=grades, char_spans={})


# Each judgment mode and the reader of its qrels format.
QRELS_LOADERS = {
    "doc_graded": load_doc_qrels,
    "char_focused": load_char_qrels,
    "sentence_binary": load_sentence_qrels,
}


def average_precision(
    ranked: RankedList, judgments: JudgmentSet, cutoff: int = 1000
) -> float | None:
    """AP over the top ``cutoff``; None when the query has nothing relevant
    (such queries are excluded from MAP). It is the one-row
    :func:`average_precisions`."""
    ids = ranked.ids()[:cutoff]
    return average_precisions(
        ranked.query_id, ids, np.arange(len(ids))[None, :], judgments, cutoff
    )[0]


def check_cutoff(cutoff: int) -> None:
    """AP reads the top ``cutoff`` ranks, at least one."""
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")


def average_precisions(
    query_id: str,
    item_ids: Sequence[str],
    orders: np.ndarray,
    judgments: JudgmentSet,
    cutoff: int = 1000,
) -> list[float | None]:
    """AP over the top ``cutoff`` of many runs over the same items at once.

    Row i of ``orders`` is one run, as positions in ``item_ids``, best
    first. Each AP adds hits / rank at its relevant ranks in rank order,
    then divides by the query's relevant count; each is None when the query
    has nothing relevant.
    """
    check_cutoff(cutoff)
    total_relevant = judgments.relevant_count(query_id)
    if total_relevant == 0:
        return [None] * len(orders)
    relevant = np.array([judgments.is_relevant(query_id, i) for i in item_ids], dtype=bool)
    hits = relevant[orders[:, :cutoff]]
    if not hits.shape[1]:
        return [0.0] * len(orders)
    precision = np.where(hits, np.cumsum(hits, axis=1) / np.arange(1, hits.shape[1] + 1), 0.0)
    # cumsum adds left to right, one rank at a time; its last column is the sum.
    return (np.cumsum(precision, axis=1)[:, -1] / total_relevant).tolist()


def precision_at(ranked: RankedList, judgments: JudgmentSet, k: int = 10) -> float:
    """Fraction of the top k that is relevant; short lists count as padded
    with non-relevant items."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    hits = sum(
        1
        for item_id, _ in ranked.entries[:k]
        if judgments.is_relevant(ranked.query_id, item_id)
    )
    return hits / k


def mean_metric(values: Sequence[float | None]) -> float:
    kept = [v for v in values if v is not None]
    return float_sum(kept) / len(kept) if kept else 0.0


# -- character-level focused retrieval --


def interpolated_precision(
    psg_run: RankedList,
    judgments: JudgmentSet,
    passage_spans: Mapping[str, tuple[str, int, int]],
    recall_points: Sequence[float] = (0.01, 0.1),
) -> tuple[dict[float, float], float] | None:
    """Character-precision iP[x] at the requested recall points, and MAiP.

    A character is retrieved at the first rank whose passage covers it, so
    retrieved characters are deduplicated per document. One array pass per
    query: each document's run spans and merged relevant spans are cut at
    all their endpoints, each elementary segment takes its first covering
    rank (grouped by :func:`first_occurrences`, one in-place sort of int64
    keys), and the retrieved and relevant characters down the run are
    integer prefix sums. iP[x] is the maximum precision at any rank whose
    recall reaches x (0 if unreachable), and MAiP averages iP over the
    101-point recall grid. Returns None for a query with no relevant
    characters. Overlapping, nested and empty spans need no special case.
    """
    if judgments.mode != "char_focused":
        raise JudgmentError("interpolated precision needs char_focused judgments")
    relevant = {
        doc_id: merge_intervals(spans)
        for doc_id, spans in judgments.char_spans.get(psg_run.query_id, {}).items()
    }
    total_relevant = sum(e - s for spans in relevant.values() for s, e in spans)
    if total_relevant == 0:
        return None
    docs, starts, ends = tuple(zip(*map(passage_spans.__getitem__, psg_run.ids()))) or ((),) * 3
    code = {doc_id: c for c, doc_id in enumerate(dict.fromkeys(docs))}
    # The run's spans by rank, then the relevant spans of the documents it
    # retrieves, as (document code, start, end) columns.
    rel = [(c, s, e) for doc_id, c in code.items() for s, e in relevant.get(doc_id, ())]
    rel_docs, rel_starts, rel_ends = tuple(zip(*rel)) or ((),) * 3
    doc = np.array([*map(code.__getitem__, docs), *rel_docs], dtype=np.int64)
    start = np.array(starts + rel_starts, dtype=np.int64)
    end = np.array(ends + rel_ends, dtype=np.int64)
    kept = np.flatnonzero(end > start)  # an empty span covers nothing
    ranks = kept[kept < len(docs)]
    # One sorted key per (document, offset): documents in disjoint ranges.
    lo = start[kept].min(initial=0)
    stride = end[kept].max(initial=0) - lo + 1
    keys = doc[kept, None] * stride + (np.stack((start[kept], end[kept]), axis=1) - lo)
    cuts, bounds = np.unique(keys, return_inverse=True)
    bounds = bounds.reshape(keys.shape)  # elementary segments [start, end) per span
    run_bounds, rel_bounds = bounds[: len(ranks)], bounds[len(ranks):]

    # Expand each run span into its (rank, segment) pairs, in rank order;
    # a segment's first pair holds its first covering rank.
    counts = run_bounds[:, 1] - run_bounds[:, 0]
    offsets = np.repeat(run_bounds[:, 0] - (np.cumsum(counts) - counts), counts)
    segments, first, _ = first_occurrences(offsets + np.arange(counts.sum()))
    segment_rank = np.repeat(ranks, counts)[first]
    length = cuts[segments + 1] - cuts[segments]
    covered = np.cumsum(
        np.bincount(rel_bounds[:, 0], minlength=len(cuts))
        - np.bincount(rel_bounds[:, 1], minlength=len(cuts))
    )
    retrieved = np.zeros(len(docs), dtype=np.int64)
    hits = np.zeros(len(docs), dtype=np.int64)
    np.add.at(retrieved, segment_rank, length)
    np.add.at(hits, segment_rank, np.where(covered[segments] > 0, length, 0))
    retrieved, hits = np.cumsum(retrieved), np.cumsum(hits)

    recalls = hits / total_relevant  # never decreases down the run
    precisions = np.divide(hits, retrieved, out=np.zeros(len(docs)), where=retrieved > 0)
    # Per rank, the best precision at this rank or below; then 0: no rank reaches x.
    best_from = np.append(np.maximum.accumulate(precisions[::-1])[::-1], 0.0)
    # The ranks whose recall reaches x form a suffix of the run.
    xs = np.array([*recall_points, *MAIP_RECALL_POINTS], dtype=np.float64)
    ips = best_from[np.searchsorted(recalls, xs - 1e-12, side="left")].tolist()
    ip_points = dict(zip(recall_points, ips))
    maip = float_sum(ips[-len(MAIP_RECALL_POINTS):]) / len(MAIP_RECALL_POINTS)
    return ip_points, maip


def query_metrics(
    run: RankedList,
    judgments: JudgmentSet,
    cutoff: int,
    passage_spans: Mapping[str, tuple[str, int, int]],
) -> dict[str, float | None]:
    """One query's metrics: iP at recall 0.01 and 0.1 and MAiP over
    ``passage_spans`` for char_focused judgments, else AP over the top
    ``cutoff`` and P@10."""
    if judgments.mode == "char_focused":
        got = interpolated_precision(run, judgments, passage_spans, recall_points=(0.01, 0.1))
        if got is None:
            return {"ip_0.01": None, "ip_0.1": None, "maip": None}
        ip, maip = got
        return {"ip_0.01": ip[0.01], "ip_0.1": ip[0.1], "maip": maip}
    ap = average_precision(run, judgments, cutoff)
    return {"ap": ap, "p10": precision_at(run, judgments, 10)}


# -- paired t-test --


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the regularized incomplete beta (Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETACF_EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_tailed_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for a Student t variable with df degrees of freedom."""
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    x = df / (df + t * t)
    return regularized_incomplete_beta(df / 2.0, 0.5, x)


@dataclass(frozen=True)
class TTestResult:
    t: float
    p: float
    significant: bool


def check_ttest_params(alpha: float = 0.05, corrections: int = 1) -> None:
    """A paired t-test's level must lie in (0, 1) and its Bonferroni count be >= 1."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if corrections < 1:
        raise ValueError(f"corrections must be >= 1, got {corrections}")


def paired_ttest(
    per_query_a: Sequence[float],
    per_query_b: Sequence[float],
    alpha: float = 0.05,
    corrections: int = 1,
) -> TTestResult:
    """Two-tailed paired t-test at level alpha / corrections (Bonferroni).

    Identical samples short-circuit to (t=0, p=1, not significant); a
    constant non-zero difference has no variance and raises ValueError.
    """
    check_ttest_params(alpha, corrections)
    if len(per_query_a) != len(per_query_b):
        raise ValueError("paired samples must have equal lengths")
    n = len(per_query_a)
    if n < 2:
        raise ValueError("paired t-test needs at least 2 observations")
    diffs = [b - a for a, b in zip(per_query_a, per_query_b)]
    if all(d == 0.0 for d in diffs):
        return TTestResult(t=0.0, p=1.0, significant=False)
    mean = float_sum(diffs) / n
    var = float_sum((d - mean) ** 2 for d in diffs) / (n - 1)
    if var == 0.0:
        raise ValueError("degenerate paired t-test: differences have zero variance")
    t = mean / math.sqrt(var / n)
    p = student_t_two_tailed_p(t, n - 1)
    return TTestResult(t=t, p=p, significant=p < alpha / corrections)


# -- cross-validation plan --


@dataclass(frozen=True)
class CvPlan:
    """Leave-one-out folds with a seeded 80/20 train/validation split."""

    query_ids: tuple[str, ...]
    seed: int
    validation_fraction: float = 0.2

    def __post_init__(self):
        if len(self.query_ids) != len(set(self.query_ids)):
            raise ValueError("duplicate query ids in CV plan")
        if len(self.query_ids) < 2:
            raise ValueError(
                "leave-one-out needs at least 2 queries; a single-query "
                "dataset would train on zero queries"
            )
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation fraction must lie in (0,1)")

    def folds(self) -> list[tuple[str, list[str], list[str]]]:
        """(test_query, train_queries, validation_queries) per fold.

        Splits are seeded per fold so they are independent of each other
        but fully reproducible; validation gets at least one query and so
        does training.
        """
        ordered = sorted(self.query_ids)
        out = []
        for i, test_q in enumerate(ordered):
            rest = [q for q in ordered if q != test_q]
            rng = np.random.default_rng((self.seed, i))
            perm = list(rng.permutation(len(rest)))
            n_val = max(1, int(round(self.validation_fraction * len(rest))))
            n_val = min(n_val, len(rest) - 1)
            val = sorted(rest[j] for j in perm[:n_val])
            train = sorted(rest[j] for j in perm[n_val:])
            out.append((test_q, train, val))
        return out
