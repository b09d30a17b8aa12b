"""Per-row forms of the learned-ranker path and of the concept-space
feature, kept as references.

The package carries one FeatureMatrix per query and schema. These loops
build one (item_id, values) row, one score or one difference row at a time,
in the order the matrix code must reproduce, so tests can require ``==``
between the two. A joint builder's reference also derives the output schema
on its own. Rank maps are rebuilt here on every call, as the loops once did.

Query likelihood is a scalar loop here (:func:`lm_similarity`), one unit
and one term at a time; the package scores many units in one array pass.
Concept profiles are id -> value dicts here, scored one document at a time
by that loop; the package keeps them as rank arrays scored from cached log
tables. Those tables are filled one stem at a time here (:func:`lm_logs`),
and a top k is scored one term list at a time over its own candidates
(:func:`lm_top_ranks`); the package fills a block's missing stems with one
log pass and scores up to 16 lists over the union of their candidates.

The document store is one Token per match here, and the index, sentence
breaks and stopword priors read those tokens; the package keeps token
columns. ExactMatch compares a list pair per window.

Passage features are one passage at a time here (:func:`passage_vector`):
a Counter of its stems, a stopword scan of its tokens, a keyword sort and
a list scan per passage. The package builds each feature family as one
column pass over all of a query's passages.

The index is one (doc_id, positions) pair per stem and document here,
written as one JSON dump and scanned with sets and nested loops; the
package keeps CSR arrays, writes the same bytes piecewise and counts with
searchsorted.

Fusion and AP are scalar loops here: ``fuse`` scores one document and
``average_precision`` one rank at a time, and a fusion grid is one fused
RankedList and one AP per (alpha, nu) point. JPDs and FPD pick each
document's passage from the passage ranking one document at a time. The
package fuses and scores AP as array rows only, a final run being one row,
and picks from a PassageRanks table. SMPD's statistics are one document at
a time here (:func:`smpd_features`, over the ranking's rank map); the
package reads them from that table, one passage position at a time. A
model scores one row at a time here; the package scores a matrix with one
``np.vecdot``.

The hinge trainer's epochs gather the violating pairs by a boolean mask
here (:func:`pairwise_hinge`); the package gathers them by index. The
difference matrix is one block per query here (:func:`difference_blocks`),
from that query's rows in item-id order and its n x n grade mask; the
package gathers every query's (hi, lo) pairs, kept per query, from the
stacked matrices at once.

NDCG is a scalar loop here: ``dcg_at_k`` adds one rank at a time, and the
coordinate-ascent objective sorts each query's (id, score) pairs with
``sorted`` and recomputes its ideal DCG on every call. iP walks a run one
passage at a time, subtracting the characters already covered in its
document and intersecting the rest with the merged relevant spans. The
package runs both as array passes over all queries or all ranks at once.

PLM's positional similarities find each query term's positions by a scan
of the passage's stems here, build the kernel one entry at a time and score
one query term at a time over all positions; the package compares its
term-id column, takes the kernel's rows as windows over its m offsets, and
scores through ``lm_similarities``. Both take logs and exps from ``math``.

The concept profile and DocPsg's length weights each min-maxed their values
inline once, as :func:`esa_minmax` and :func:`docpsg_minmax` here; the
package runs both, and ``minmax_normalize``, through one ``minmax``.

Integer groupings (a unit's (unit, term) count table, iP's first covering
ranks, the store's renumbering) are ``np.unique(..., return_index=True)``
here, a stable sort; the package sorts int64 keys that hold each value's
position in place (``index.stable_order``). Entropy adds the j-th summands
of all units in one step here, one step per summand position; the package
adds each power-of-two size class with one ``np.cumsum``.
"""

import json
import math
import re
from bisect import bisect_left
from collections import Counter, defaultdict

import numpy as np

from psgrank.corpus import Token
from psgrank.features import (
    DOC_SCHEMA, ConceptProfile, FeatureMatrix, FeatureSchema, _cosine, concat_schemas,
)
from psgrank.features import profile_cosine as concept_cosine
from psgrank.evaluation import MAIP_RECALL_POINTS, JudgmentError
from psgrank.index import INDEX_VERSION, LOG_FLOOR, SDM_WINDOW, exact_log
from psgrank.passage import merge_intervals, neighbors
from psgrank.rank import (
    JPD2_SECOND_EXCLUSIONS, SMPD_FEATURES, SMPD_SCHEMA, FusionParams, RankedList, _common_scale,
    _sqrt_ratio,
)


def rows_of(matrix):
    """A feature matrix as (schema, [(item_id, values)]), values as float tuples."""
    return matrix.schema, [(i, tuple(r)) for i, r in zip(matrix.item_ids, matrix.values.tolist())]


def table_of(matrix):
    """A feature matrix as (schema, {item_id: values})."""
    schema, rows = rows_of(matrix)
    return schema, dict(rows)


def ranks(ranked) -> dict[str, int]:
    return {item_id: r for r, (item_id, _) in enumerate(ranked.entries, start=1)}


def truncated(ranked, k: int) -> RankedList:
    """The top ``k`` entries of a ranked list."""
    return RankedList(ranked.query_id, ranked.entries[:k])


def difference_rows(rows, max_pairs: int, seed: int) -> np.ndarray:
    """x_hi - x_lo for every within-query pair with grade_hi > grade_lo, from
    (query_id, item_id, values, grade) rows: queries by id, items by id, hi
    outer and lo inner; then a seeded subsample of max_pairs rows kept in
    order."""
    groups = {}
    for row in rows:
        groups.setdefault(row[0], []).append(row)
    diffs = []
    for qid in sorted(groups):
        group = sorted(groups[qid], key=lambda r: r[1])
        for _, _, hi_values, hi_grade in group:
            for _, _, lo_values, lo_grade in group:
                if hi_grade > lo_grade:
                    diffs.append(np.subtract(hi_values, lo_values))
    mat = np.array(diffs, dtype=float)
    if len(mat) > max_pairs:
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(len(mat), size=max_pairs, replace=False))
        mat = mat[keep]
    return mat


def difference_blocks(data, max_pairs: int, seed: int) -> np.ndarray:
    """The difference rows of a TrainingSet one query block at a time: rows
    in item-id order, x[hi] - x[lo] over the pairs of an n x n grade mask,
    hi outer and lo inner; then a seeded subsample of max_pairs rows kept
    in order. Raises TrainingError when no pair has distinct grades."""
    from psgrank.ltr import TrainingError

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


def pairwise_hinge(diffs, c: float, epochs: int, learning_rate: float, violating=None):
    """The hinge trainer's epoch loop over a difference matrix, with one
    product for the epoch's violations, gathered by a boolean mask, and
    another for its error count, which counts a NaN margin as misordered.
    It stops at the first epoch whose weights are not all finite. Returns
    the best weights as floats and their epoch (-1: the zero start), or
    None for the weights when they overflow before any epoch improves on
    the zero start. When ``violating`` is a list, each epoch appends the
    fraction of pairs with margin < 1 that its step reads."""
    w = np.zeros(diffs.shape[1])
    best_w, best_epoch = w.copy(), -1
    best_err = int(np.sum(~(diffs @ w > 0.0)))
    for t in range(epochs):
        with np.errstate(over="ignore", invalid="ignore"):
            margins = diffs @ w
            mask = margins < 1.0
            if violating is not None:
                violating.append(np.count_nonzero(mask) / len(mask))
            grad = w - c * diffs[mask].sum(axis=0)
            w = w - (learning_rate / (1.0 + t)) * grad
            if not np.isfinite(w).all():
                return (None if best_epoch < 0 else tuple(float(x) for x in best_w)), best_epoch
            err = int(np.sum(~(diffs @ w > 0.0)))
        if err < best_err:
            best_err, best_w, best_epoch = err, w.copy(), t
    return tuple(float(x) for x in best_w), best_epoch


def minmax_rows(rows) -> list[tuple[str, tuple]]:
    mat = np.array([values for _, values in rows], dtype=float)
    lo = mat.min(axis=0)
    hi = mat.max(axis=0)
    span = hi - lo
    safe = np.where(span > 0, span, 1.0)
    normed = np.where(span > 0, (mat - lo) / safe, 0.0)
    return [(item_id, tuple(row.tolist())) for (item_id, _), row in zip(rows, normed)]


def esa_minmax(scores: np.ndarray) -> np.ndarray:
    """The concept profile's inline min-max of its top-k scores."""
    if len(scores):
        lo, hi = scores.min(), scores.max()
        span = hi - lo
        scores = (scores - lo) / span if span > 0 else np.zeros(len(scores))
    return scores


def docpsg_minmax(log_lens: dict) -> dict:
    """DocPsg's inline min-max of its candidates' log lengths, one float at a time."""
    if not log_lens:
        return {}
    lo, hi = min(log_lens.values()), max(log_lens.values())
    span = hi - lo
    return {d: (v - lo) / span if span > 0 else 0.0 for d, v in log_lens.items()}


def score_rows(weights, rows) -> dict[str, float]:
    """Each row's score as its own ``np.dot(w, values)``."""
    w = np.array(weights)
    return {item_id: float(np.dot(w, values)) for item_id, values in rows}


def select_passage(doc_passages, psg_list, which: str):
    psg_ranks = ranks(psg_list)
    ranked = sorted(
        (p for p in doc_passages if p.passage_id in psg_ranks),
        key=lambda p: psg_ranks[p.passage_id],
    )
    if not ranked:
        return None
    if which == "lowest":
        return ranked[-1]
    idx = {"best": 0, "second": 1, "third": 2}[which]
    return ranked[idx] if idx < len(ranked) else ranked[-1]


def _fallback(doc_passages, psgs):
    schema, values = psgs
    if "PsgQuerySim" not in schema.features:
        return doc_passages[0]
    col = schema.index_of("PsgQuerySim")
    return max(doc_passages, key=lambda p: (values[p.passage_id][col], p.passage_id))


def _joined(left, schema, right, exclusions) -> tuple:
    """``left`` followed by the values of ``right`` whose feature is kept."""
    return tuple(left) + tuple(v for f, v in zip(schema.features, right) if f not in exclusions)


def pstdev(values) -> float:
    """Population standard deviation of floats, correctly rounded.

    The variance is exact: every float is an integer over a power of two,
    so over their common denominator 2**k it is num / den with integers
    num = n * sum(x**2) - sum(x)**2 and den = n**2 * 4**k, whose root
    ``_sqrt_ratio`` rounds once. SMPD's builder takes this step for the
    documents its float pass cannot decide.
    """
    nums, k = _common_scale(values)
    n, total = len(nums), sum(nums)
    return _sqrt_ratio(n * sum(x * x for x in nums) - total * total, n * n << (2 * k))


def smpd_features(doc_passage_ids, psg_list, nu: float) -> tuple:
    """Rank statistics of a document's passages in the passage ranking.

    Returns (max, min, avg, std, top50, top100, numPsg): the extremes,
    mean and population standard deviation of the passages' reciprocal
    rank scores (0 for unranked passages), the fraction ranked within the
    top 50 and top 100, and the passage count.
    """
    if not doc_passage_ids:
        raise ValueError("document has no passages")
    psg_ranks = psg_list.ranks()
    rr = []
    in50 = in100 = 0
    for pid in doc_passage_ids:
        rank = psg_ranks.get(pid)
        if rank is None:
            rr.append(0.0)
            continue
        rr.append(1.0 / (nu + rank))
        if rank <= 50:
            in50 += 1
        if rank <= 100:
            in100 += 1
    n = len(doc_passage_ids)
    # Left to right, as ``sum`` adds floats before Python 3.12.
    total = 0.0
    for x in rr:
        total += x
    return (
        max(rr),
        min(rr),
        total / n,
        pstdev(rr) if n > 1 else 0.0,
        in50 / n,
        in100 / n,
        float(n),
    )


def smpd_rows(doc_ids, docs, passages_by_doc, psg_list, nu):
    doc_schema, doc_values = docs
    schema = (
        SMPD_SCHEMA
        if doc_schema == DOC_SCHEMA
        else concat_schemas(
            doc_schema, FeatureSchema("smpd-stats", SMPD_FEATURES),
            name="smpd", a_prefix="d.", b_prefix="p.",
        )
    )
    out = []
    for doc_id in doc_ids:
        stats = smpd_features([p.passage_id for p in passages_by_doc[doc_id]], psg_list, nu)
        out.append((doc_id, tuple(doc_values[doc_id]) + tuple(stats)))
    return schema, out


def jpds_rows(doc_ids, docs, psgs, passages_by_doc, psg_list, which="best", two_passages=False):
    doc_schema, doc_values = docs
    psg_schema, psg_values = psgs
    first = {"DocQuerySim", "QueryLength"} & set(psg_schema.features)
    second_excl = JPD2_SECOND_EXCLUSIONS & set(psg_schema.features)
    schema = concat_schemas(
        doc_schema, psg_schema, name="jpd2" if two_passages else "jpds",
        a_prefix="d.", b_prefix="p.", exclusions=first,
    )
    if two_passages:
        schema = concat_schemas(
            schema, psg_schema, name="jpd2", b_prefix="p2.", exclusions=second_excl
        )
    out = []
    for doc_id in doc_ids:
        passages = passages_by_doc[doc_id]
        chosen = select_passage(passages, psg_list, which)
        if chosen is None:
            chosen = _fallback(passages, psgs)
        values = _joined(doc_values[doc_id], psg_schema, psg_values[chosen.passage_id], first)
        if two_passages:
            second = select_passage(passages, psg_list, "second")
            if second is None:
                second = chosen
            values = _joined(values, psg_schema, psg_values[second.passage_id], second_excl)
        out.append((doc_id, values))
    return schema, out


def jpdm_rows(doc_ids, docs, psgs, passages_by_doc, agg):
    doc_schema, doc_values = docs
    psg_schema, psg_values = psgs
    exclusions = ({"PsgQuerySim"} if agg in ("avg", "max") else set()) & set(
        psg_schema.features
    )
    schema = concat_schemas(
        doc_schema, psg_schema, name=f"jpdm-{agg}", a_prefix="d.",
        b_prefix=f"{agg}.", exclusions=exclusions,
    )
    kept = [psg_schema.index_of(f) for f in psg_schema.features if f not in exclusions]
    fn = {"avg": np.mean, "max": np.max, "min": np.min}[agg]
    out = []
    for doc_id in doc_ids:
        mat = np.array([psg_values[p.passage_id] for p in passages_by_doc[doc_id]], dtype=float)
        agg_vals = fn(mat[:, kept], axis=0)
        out.append((doc_id, tuple(doc_values[doc_id]) + tuple(float(v) for v in agg_vals)))
    return schema, out


def fpd_rows(doc_ids, psgs, passages_by_doc, psg_list):
    psg_schema, psg_values = psgs
    out = []
    for doc_id in doc_ids:
        passages = passages_by_doc[doc_id]
        chosen = select_passage(passages, psg_list, "best")
        if chosen is None:
            chosen = _fallback(passages, psgs)
        out.append((doc_id, tuple(psg_values[chosen.passage_id])))
    return psg_schema, out


def rrf_scores(doc_list, psg_list, nu: float, alpha: float) -> dict[str, float]:
    """RRF as a max over each document's passages, rank maps rebuilt per call."""
    by_doc = {}
    for pid, _ in psg_list:
        by_doc.setdefault(pid.rsplit("#", 1)[0], []).append(pid)
    psg_ranks = ranks(psg_list)
    scores = {}
    for doc_id, rank in ranks(doc_list).items():
        best = max((1.0 / (nu + psg_ranks[p]) for p in by_doc.get(doc_id, ())), default=0.0)
        scores[doc_id] = alpha / (nu + rank) + (1.0 - alpha) * best
    return scores


def fuse(doc_list, other_ranks, params) -> RankedList:
    """Score(d) = alpha/(nu + r) + (1 - alpha)/(nu + r'), with r the rank of d
    in ``doc_list`` and r' its rank in ``other_ranks``; a document without
    r' gets a zero second term."""
    scores = {}
    for doc_id, rank in doc_list.ranks().items():
        other = other_ranks.get(doc_id)
        term = 1.0 / (params.nu + other) if other is not None else 0.0
        scores[doc_id] = params.alpha / (params.nu + rank) + (1.0 - params.alpha) * term
    return RankedList.from_scores(doc_list.query_id, scores)


def average_precision(ranked, judgments, cutoff: int = 1000):
    """AP over the top ``cutoff``, adding hits / rank one entry at a time;
    None when the query has nothing relevant."""
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    total_relevant = judgments.relevant_count(ranked.query_id)
    if total_relevant == 0:
        return None
    hits = 0
    precision_sum = 0.0
    for r, (item_id, _) in enumerate(ranked.entries[:cutoff], start=1):
        if judgments.is_relevant(ranked.query_id, item_id):
            hits += 1
            precision_sum += hits / r
    return precision_sum / total_relevant


def dcg_at_k(grades_in_rank_order, k: int) -> float:
    """(2^g - 1) / log2(r + 1) over the top k, added one rank at a time."""
    total = 0
    for r, g in enumerate(grades_in_rank_order[:k], start=1):
        total += (2.0**g - 1.0) / math.log2(r + 1)
    return total


def ndcg_at_k(ranked, grades, k: int = 10) -> float:
    """NDCG@k of (item_id, score) pairs in rank order; 0 with no ideal gain."""
    in_order = [grades.get(item_id, 0) for item_id, _ in ranked]
    idcg = dcg_at_k(sorted(grades.values(), reverse=True), k)
    if idcg == 0.0:
        return 0.0
    return dcg_at_k(in_order, k) / idcg


def mean_ndcg(weights, matrices, k: int) -> float:
    """Mean NDCG@k over (rows, item ids, id -> grade) queries: each query's
    ``rows @ weights`` sorted by score with ties by id, NDCGs added in order."""
    total = 0.0
    for mat, item_ids, grades in matrices:
        raw = mat @ weights
        order = sorted(zip(item_ids, raw), key=lambda kv: (-kv[1], kv[0]))
        total += ndcg_at_k(order, grades, k)
    return total / len(matrices)


def ndcg_objective(data, k: int):
    """:func:`mean_ndcg` over a TrainingSet, as a function of the weights."""
    matrices = [(x, ids, dict(zip(ids, g.tolist()))) for x, ids, g in data.by_item()]
    return lambda weights: mean_ndcg(weights, matrices, k)


def _measure(intervals) -> int:
    return sum(e - s for s, e in intervals)


def _subtract(span, covered) -> list[tuple[int, int]]:
    """Parts of span not already covered (covered is merged & sorted)."""
    out = []
    s, e = span
    for cs, ce in covered:
        if ce <= s:
            continue
        if cs >= e:
            break
        if cs > s:
            out.append((s, cs))
        s = max(s, ce)
        if s >= e:
            break
    if s < e:
        out.append((s, e))
    return out


def _intersect(a, b) -> int:
    total = 0
    for s1, e1 in a:
        for s2, e2 in b:
            total += max(0, min(e1, e2) - max(s1, s2))
    return total


def relevant_spans(judgments, query_id):
    """Document -> merged relevant spans of a query, and their character count."""
    relevant = {
        doc_id: merge_intervals(spans)
        for doc_id, spans in judgments.char_spans.get(query_id, {}).items()
    }
    return relevant, sum(_measure(iv) for iv in relevant.values())


def ip_curve(pids, passage_spans, relevant, total_relevant):
    """(recall, precision) after each rank of a passage run, walked one
    passage at a time; ``relevant`` is from :func:`relevant_spans`."""
    covered = {}
    retrieved_chars = relevant_chars = 0
    curve = []
    for pid in pids:
        doc_id, start, end = passage_spans[pid]
        new_parts = _subtract((start, end), covered.get(doc_id, ()))
        if new_parts:
            retrieved_chars += _measure(new_parts)
            relevant_chars += _intersect(new_parts, relevant.get(doc_id, ()))
            covered[doc_id] = merge_intervals(covered.get(doc_id, []) + new_parts)
        curve.append((
            relevant_chars / total_relevant,
            relevant_chars / retrieved_chars if retrieved_chars else 0.0,
        ))
    return curve


def interpolated_precision(psg_run, judgments, passage_spans, recall_points=(0.01, 0.1)):
    """iP[x] and MAiP from :func:`ip_curve`, with a suffix maximum over the
    per-rank precisions and a bisection for the first rank reaching x."""
    if judgments.mode != "char_focused":
        raise JudgmentError("interpolated precision needs char_focused judgments")
    relevant, total_relevant = relevant_spans(judgments, psg_run.query_id)
    if total_relevant == 0:
        return None
    curve = ip_curve(psg_run.ids(), passage_spans, relevant, total_relevant)
    recalls = [r for r, _ in curve]
    best_from = [p for _, p in curve]
    for i in range(len(best_from) - 2, -1, -1):
        if best_from[i + 1] > best_from[i]:
            best_from[i] = best_from[i + 1]
    best_from.append(0.0)  # no rank reaches x

    def ip(x):
        # The ranks whose recall reaches x form a suffix of the run.
        return best_from[bisect_left(recalls, x - 1e-12)]

    ip_points = {x: ip(x) for x in recall_points}
    maip = sum(ip(x) for x in MAIP_RECALL_POINTS) / len(MAIP_RECALL_POINTS)
    return ip_points, maip


def fusion_grid_aps(doc_list, other_ranks, points, judgments, cutoff) -> list:
    """The AP of each (alpha, nu) point's run: :func:`fuse` builds one
    RankedList per point, and :func:`average_precision` scores it."""
    return [
        average_precision(
            fuse(doc_list, other_ranks, FusionParams(nu=p["nu"], alpha=p["alpha"])),
            judgments, cutoff,
        )
        for p in points
    ]


def matrix_of(query_id, table) -> FeatureMatrix:
    """A (schema, [(item_id, values)]) reference table as a feature matrix."""
    schema, rows = table
    values = np.array([v for _, v in rows], dtype=float).reshape(len(rows), len(schema))
    return FeatureMatrix(schema, query_id, [i for i, _ in rows], values)


def per_point_methods(methods) -> dict:
    """Method records that walk the fusion grids one run at a time: RRF and
    FPD fuse each (alpha, nu) point's run with :func:`fuse`, and FPD and the
    JPDs variants build rows from the passage ranking with select_passage,
    in the document ranking's order, as the builders once did.
    ``methods`` is the experiment's table; the walk scores each run by the
    experiment's ``average_precision``, which a caller may replace too."""
    from dataclasses import replace

    def params(p):
        return FusionParams(nu=p["nu"], alpha=p["alpha"])

    def rrf(run, q, p):
        return fuse(run.c_ltr(q), run.passage_ranking(q).best_passage_ranks(), params(p))

    def fpd_rank(run, q, p, ranking):
        return fuse(run.c_ltr(q), ranking.ranks(), params(p))

    def fpd(run, q, p):
        psgs = table_of(run.pipe.psg_vectors(q, run.psg_feature_mu()))
        by_doc = run.pipe.query_data(q).passages_by_doc
        return matrix_of(q, fpd_rows(run.c_ltr(q).ids(), psgs, by_doc, run.passage_ranking(q)))

    def jpds(which, two_passages):
        def vectors(run, q, p):
            docs = table_of(run.pipe.doc_vectors(q, run.params["init-LTR"]["mu"]))
            psgs = table_of(run.pipe.psg_vectors(q, run.psg_feature_mu()))
            by_doc = run.pipe.query_data(q).passages_by_doc
            return matrix_of(q, jpds_rows(
                run.c_ltr(q).ids(), docs, psgs, by_doc, run.passage_ranking(q), which,
                two_passages,
            ))

        return vectors

    out = {
        "RRF": replace(methods["RRF"], rank=rrf, fuse_with=None),
        "FPD": replace(methods["FPD"], rank=fpd_rank, vectors=fpd, fuse_with=None),
    }
    for name, which, two in (
        ("JPDs", "best", False), ("JPDs-second", "second", False), ("JPDs-third", "third", False),
        ("JPDs-lowest", "lowest", False), ("JPD-2", "best", True),
    ):
        out[name] = replace(methods[name], vectors=jpds(which, two))
    return out


def lm_similarity(terms, counts, length, index, params) -> float:
    """exp(-cross-entropy) similarity between a term sequence and one unit
    of ``counts``/``length``. Terms absent from the collection are dropped;
    if all are, or a kept term has zero smoothed probability (mu = 0 and no
    occurrence), the similarity is 0."""
    kept = [t for t in terms if index.collection_term_counts.get(t)]
    if not kept:
        return 0.0
    denom = length + params.mu
    if denom <= 0:
        return 0.0
    log_sum = 0.0
    inv_n = 1.0 / len(kept)
    for t in kept:
        p_c = index.collection_prob(t)
        theta = (counts.get(t, 0.0) + params.mu * p_c) / denom
        if theta <= 0.0:
            return 0.0
        log_sum += inv_n * math.log(theta)
    return math.exp(log_sum)


def doc_lm_similarity(terms, doc_id, index, params) -> float:
    """lm_similarity against an indexed document, counts read from postings."""
    counts = {t: len(index.positions(t, doc_id)) for t in set(terms)}
    return lm_similarity(terms, counts, index.doc_lengths[doc_id], index, params)


def lm_top_k(terms, index, params, k):
    """The scalar formula over every document holding a kept term, zero
    scores dropped, top k by score with ties by id."""
    kept = {t for t in terms if index.collection_term_counts.get(t)}
    scores = {}
    for doc_id in {d for d in index.doc_order for t in kept if len(index.positions(t, d))}:
        s = doc_lm_similarity(terms, doc_id, index, params)
        if s > 0.0:
            scores[doc_id] = s
    return list(RankedList.from_scores("ref", scores, k=k).entries)


def lm_logs(index, stem, mu):
    """One stem's entry of ``PositionalIndex.lm_logs``, computed alone."""
    _, _, distinct, slot = index.doc_table()
    lo, hi = index._span(stem)
    ranks = index._slot_rank[index.posting_docs[lo:hi]]
    tf = np.diff(index.posting_bounds[lo : hi + 1])
    smooth = mu * index.collection_prob(stem)
    denom = distinct + mu
    posting = (tf + smooth) / denom[slot[ranks]]
    posting = np.fromiter(map(math.log, posting.tolist()), float, len(ranks))
    background = np.divide(smooth, denom, out=np.zeros(len(denom)), where=denom > 0)
    return ranks, posting, exact_log(background)


def lm_top_ranks(terms, index, params, k):
    """One term list's entry of ``index.lm_top_ranks``: a table of its own
    distinct stems by its own candidates, its summands added in list order."""
    kept = [t for t in terms if index.collection_term_counts.get(t)]
    if not kept:
        return np.empty(0, dtype=np.intp), np.empty(0)
    slot = index.doc_table()[3]
    row_of = {t: row for row, t in enumerate(dict.fromkeys(kept))}
    tables = [lm_logs(index, t, params.mu) for t in row_of]
    posting_ranks = np.concatenate([ranks for ranks, _, _ in tables])
    is_cand = np.zeros(len(slot), dtype=bool)
    is_cand[posting_ranks] = True
    cand = np.flatnonzero(is_cand)
    backgrounds = np.concatenate([background for _, _, background in tables])
    logs = backgrounds.reshape(len(tables), -1)[:, slot[cand]]
    rows = np.repeat(np.arange(len(tables)), [len(ranks) for ranks, _, _ in tables])
    column = np.cumsum(is_cand) - 1
    logs[rows, column[posting_ranks]] = np.concatenate([posting for _, posting, _ in tables])
    logs *= 1.0 / len(kept)
    logs = logs[[row_of[t] for t in kept]]
    log_sum = np.zeros(len(cand))
    for summand in logs:
        log_sum += summand
    if k < len(cand):
        kth = float(np.partition(log_sum, len(cand) - k)[len(cand) - k])
        if math.exp(kth - 1e-6) != math.exp(kth):
            near = log_sum >= kth - 1e-6
            cand, log_sum = cand[near], log_sum[near]
    scores = np.fromiter(map(math.exp, log_sum.tolist()), float, len(cand))
    positive = scores > 0.0
    cand, scores = cand[positive], scores[positive]
    order = np.argsort(-scores, kind="stable")[:k]
    return cand[order], scores[order]


def concept_profile(terms, esa_index, params, k=100) -> ConceptProfile:
    """One term list's profile from :func:`lm_top_ranks`, in rank order."""
    ranks, scores = lm_top_ranks(terms, esa_index, params, k)
    order = np.argsort(ranks)
    return ConceptProfile(ranks[order], esa_minmax(scores)[order])


def esa_profile(terms, esa_index, params, k=100) -> dict[str, float]:
    """Min-max normalized top-k scores keyed by doc id, in rank order."""
    entries = lm_top_k(terms, esa_index, params, k)
    if not entries:
        return {}
    vals = [s for _, s in entries]
    lo, hi = min(vals), max(vals)
    span = hi - lo
    if span <= 0:
        return {i: 0.0 for i, _ in entries}
    return {i: (s - lo) / span for i, s in entries}


def profile_cosine(a, b) -> float:
    keys = sorted(set(a) | set(b))
    if not keys:
        return 0.0
    va = np.array([a.get(k, 0.0) for k in keys])
    vb = np.array([b.get(k, 0.0) for k in keys])
    return _cosine(va, vb)


def top_tfidf_stems(counts, esa_index, k=20) -> list[str]:
    n_docs = esa_index.doc_count()
    scored = []
    for stem, tf in counts.items():
        df = esa_index.document_frequency(stem)
        if df == 0:
            continue
        scored.append((-(tf * math.log(n_docs / df)), stem))
    scored.sort()
    return [stem for _, stem in scored[:k]]


def tokenize(text, stemmer, stopwords) -> list[Token]:
    """One Token per maximal alphanumeric run, each surface analysed once."""
    analysis = {}
    tokens = []
    for m in re.finditer(r"[0-9A-Za-z]+", text):
        surface = m.group()
        hit = analysis.get(surface)
        if hit is None:
            lower = surface.lower()
            hit = analysis[surface] = (stemmer.stem(lower), stopwords.position(lower) >= 0)
        start, end = m.span()
        tokens.append(Token(surface, hit[0], start, end, hit[1]))
    return tokens


def postings(store):
    """Stem -> [(doc_id, positions)] and stem -> collection count, from doc.stems()."""
    out = defaultdict(list)
    counts = defaultdict(int)
    for doc in store.documents:
        per_doc = defaultdict(list)
        for pos, stem in enumerate(doc.stems()):
            per_doc[stem].append(pos)
        for stem, positions in per_doc.items():
            out[stem].append((doc.doc_id, positions))
            counts[stem] += len(positions)
    return dict(out), dict(counts)


def postings_of(index):
    """Stem -> [(doc_id, positions)] of an index in its stem order, documents
    in doc order, read through ``positions``."""
    out = {}
    for stem in index.stems:
        found = [(d, index.positions(stem, d).tolist()) for d in index.doc_order]
        out[stem] = [(d, positions) for d, positions in found if positions]
    return out


def index_json(store) -> str:
    """index.json as one json.dumps of the per-pair postings of :func:`postings`."""
    stem_postings, counts = postings(store)
    payload = {
        "version": INDEX_VERSION,
        "corpus_checksum": store.checksum(),
        "collection_length": sum(doc.length for doc in store.documents),
        "doc_order": store.doc_ids(),
        "doc_lengths": {doc.doc_id: doc.length for doc in store.documents},
        "collection_term_counts": counts,
        "postings": stem_postings,
    }
    return json.dumps(payload, sort_keys=True)


def count_ordered_pairs(positions_a, positions_b) -> int:
    b_set = set(positions_b)
    return sum(1 for p in positions_a if p + 1 in b_set)


def count_window_pairs(positions_a, positions_b, same_term: bool) -> int:
    span = SDM_WINDOW - 1
    total = 0
    if same_term:
        pos = sorted(positions_a)
        for i, p in enumerate(pos):
            for q in pos[i + 1:]:
                if q - p > span:
                    break
                total += 1
        return total
    for p in positions_a:
        for q in positions_b:
            if abs(p - q) <= span:
                total += 1
    return total


def scan_pairs(stem_postings, a, b, ordered: bool) -> int:
    """The collection's ordered or window pair count over :func:`postings_of`,
    one document at a time."""
    docs_a = dict(stem_postings.get(a, ()))
    docs_b = dict(stem_postings.get(b, ()))
    total = 0
    for doc_id in docs_a.keys() & docs_b.keys():
        if ordered:
            total += count_ordered_pairs(docs_a[doc_id], docs_b[doc_id])
        else:
            total += count_window_pairs(docs_a[doc_id], docs_b[doc_id], a == b)
    return total


def sdm_components(query, doc, index, mu: float) -> tuple[float, float, float]:
    """SDM's three log sums, the document's positions scanned from doc.stems()."""
    terms = query.stems()
    denom = doc.length + mu

    def smoothed_log(count, collection_count):
        p_c = collection_count / index.collection_length if index.collection_length else 0.0
        if denom <= 0:
            return LOG_FLOOR
        theta = (count + mu * p_c) / denom
        if theta <= 0.0:
            return LOG_FLOOR
        return max(math.log(theta), LOG_FLOOR)

    positions = defaultdict(list)
    for pos, stem in enumerate(doc.stems()):
        positions[stem].append(pos)
    f_t = sum(
        smoothed_log(len(positions.get(t, ())), index.collection_term_counts.get(t, 0))
        for t in terms
    )
    f_o = f_u = 0.0
    for a, b in zip(terms, terms[1:]):
        pa, pb = positions.get(a, ()), positions.get(b, ())
        f_o += smoothed_log(count_ordered_pairs(pa, pb), index.pair_count(a, b, True))
        f_u += smoothed_log(count_window_pairs(pa, pb, a == b), index.pair_count(a, b, False))
    return f_t, f_o, f_u


def term_entropy(counts) -> float:
    """Entropy of a stem -> count mapping, summands in its key order."""
    total = sum(counts.values())
    if total == 0:
        return 0.0
    return -sum((c / total) * math.log(c / total) for c in counts.values() if c)


def first_occurrences(values):
    """Sorted distinct values, each one's first index and its count."""
    return np.unique(values, return_index=True, return_counts=True)


def token_counts(cols):
    """``_TokenColumns.counts`` through ``np.unique``: unit, term id and
    count of each (unit, term) pair in order of first occurrence, and each
    unit's bounds among them."""
    width = int(cols.term_ids.max(initial=0)) + 1
    keys, first, tf = np.unique(
        cols.owner * width + cols.term_ids, return_index=True, return_counts=True
    )
    order = np.argsort(first)
    unit, term = np.divmod(keys[order], width)
    return unit, term, tf[order], np.searchsorted(unit, np.arange(len(cols.lengths) + 1))


def term_entropies(tf, bounds):
    """``features.term_entropies`` one summand position at a time: the j-th
    summands of all units that have one are added in one step."""
    sizes = np.diff(bounds)
    owner = np.repeat(np.arange(len(sizes)), sizes)
    ratio = tf / np.diff(np.concatenate(([0], np.cumsum(tf)))[bounds])[owner]
    distinct, inverse = np.unique(ratio, return_inverse=True)
    summands = ratio * exact_log(distinct)[inverse]
    # Units by size, largest first: those with a j-th summand are a prefix.
    by_size = np.argsort(-sizes, kind="stable")
    starts = bounds[by_size]
    totals = np.zeros(len(sizes))
    for j, held in enumerate(np.searchsorted(-sizes[by_size], -np.arange(sizes.max(initial=0)))):
        totals[:held] += summands[starts[:held] + j]
    return np.where(sizes > 0, -totals[np.argsort(by_size)], 0.0)


def sentence_bounds(doc, break_re) -> list[tuple[int, int]]:
    """Token i ends a sentence when a break mark occurs before token i+1."""
    tokens = doc.tokens
    break_positions = [m.start() for m in break_re.finditer(doc.raw_text)]
    bounds = []
    start = 0
    bi = 0
    for i, tok in enumerate(tokens[:-1]):
        nxt = tokens[i + 1]
        while bi < len(break_positions) and break_positions[bi] < tok.char_end:
            bi += 1
        if bi < len(break_positions) and tok.char_end <= break_positions[bi] < nxt.char_start:
            bounds.append((start, i + 1))
            start = i + 1
    bounds.append((start, len(tokens)))
    return bounds


def char_range(doc, token_range) -> tuple[int, int]:
    start, end = token_range
    if end <= start:
        return (0, 0)
    tokens = doc.tokens
    return (tokens[start].char_start, tokens[end - 1].char_end)


def stopword_fraction(tokens) -> float:
    if not tokens:
        return 0.0
    return sum(1 for t in tokens if t.is_stopword) / len(tokens)


def stopword_coverage(tokens, stopwords) -> float:
    present = {t.surface.lower() for t in tokens if t.is_stopword}
    return len(present) / len(stopwords)


def non_stopword_count(tokens) -> float:
    return float(sum(1 for t in tokens if not t.is_stopword))


def is_subsequence(needle, haystack) -> bool:
    n = len(needle)
    if n == 0 or n > len(haystack):
        return False
    for i in range(len(haystack) - n + 1):
        if list(haystack[i : i + n]) == list(needle):
            return True
    return False



def passage_stems(doc, passage) -> list[str]:
    return doc.stems()[passage.token_range[0] : passage.token_range[1]]


def passage_term_counts(doc, passage) -> Counter:
    return Counter(passage_stems(doc, passage))


def passage_vector(extractor, passage) -> tuple[float, ...]:
    """The passage's 20 features in PSG_SCHEMA order, from the extractor's
    similarities, one passage at a time; its concept profile is computed
    here, never read from the extractor's cache."""
    ex = extractor
    doc = ex.store.get(passage.doc_id)
    doc_passages = ex.passages_by_doc[passage.doc_id]
    tokens = doc.tokens[passage.token_range[0] : passage.token_range[1]]
    stems = passage_stems(doc, passage)
    counts = Counter(stems)
    stem_set = set(stems)

    sim = ex.psg_sims[passage.passage_id]
    doc_sim = ex.doc_sims[passage.doc_id]
    psg_sim_sum, doc_sim_sum = sum(ex.psg_sims.values()), sum(ex.doc_sims.values())
    max_pd, avg_pd, std_pd = ex.doc_psg_stats[passage.doc_id]
    pre, follow = neighbors(passage, doc_passages)

    query_stems = ex.unique_query_stems
    term_overlap = syn_overlap = 0.0
    if query_stems:
        syn_table = ex.resources.synonyms or {}
        hits = sum(1 for s in query_stems if s in stem_set)
        syn_hits = sum(
            1 for s in query_stems
            if s in stem_set or any(x in stem_set for x in syn_table.get(s, ()))
        )
        term_overlap, syn_overlap = hits / len(query_stems), syn_hits / len(query_stems)

    esa = 0.0
    if ex.query_profile:
        keywords = top_tfidf_stems(counts, ex.resources.esa_index)
        profile = concept_profile(keywords, ex.resources.esa_index, ex.params)
        esa = concept_cosine(ex.query_profile, profile)

    w2v = 0.0
    if ex.query_centroid is not None:
        centroid = ex._centroid(sorted(stem_set))
        if centroid is not None:
            w2v = _cosine(ex.query_centroid, centroid)

    entity = 0.0
    if ex.query_entities is not None:
        psg_entities = ex.resources.entities.get(passage.passage_id, frozenset())
        union = ex.query_entities | psg_entities
        if union:
            entity = len(ex.query_entities & psg_entities) / len(union)

    return (
        sim / psg_sim_sum if psg_sim_sum > 0 else 0.0,
        doc_sim / doc_sim_sum if doc_sim_sum > 0 else 0.0,
        max_pd,
        avg_pd,
        std_pd,
        passage.length / doc.length if doc.length else 1.0,
        ex.psg_sims[pre.passage_id],
        ex.psg_sims[follow.passage_id],
        term_entropy(counts),
        stopword_fraction(tokens),
        stopword_coverage(tokens, ex.store.tokenizer.stopwords),
        float(ex.query.unique_term_count),
        1.0 if is_subsequence(ex.query_terms, stems) else 0.0,
        term_overlap,
        syn_overlap,
        non_stopword_count(tokens),
        (passage.ordinal + 1) / len(doc_passages),
        esa,
        w2v,
        entity,
    )


def positional_similarities(query, store, index, p, params, sigma) -> np.ndarray:
    """rank.positional_similarities, with each term's positions from a scan
    of the stems, the kernel built entry by entry, and one query term's
    ``inv_n * log(theta)`` added at a time, in query order."""
    start, end = p.token_range
    stems = store.get(p.doc_id).stems()[start:end]
    m = len(stems)
    if m == 0:
        return np.zeros(0)
    terms = [t for t in query.stems() if index.collection_term_counts.get(t)]
    if not terms:
        return np.zeros(m)
    kernel = np.array(
        [[math.exp(-((i - j) ** 2) / (2.0 * sigma * sigma)) for j in range(m)] for i in range(m)]
    )
    denom = kernel.sum(axis=1) + params.mu
    log_scores = np.zeros(m)
    counts = {}
    for t in set(terms):
        positions = [i for i, s in enumerate(stems) if s == t]
        counts[t] = kernel[:, positions].sum(axis=1) if positions else np.zeros(m)
    valid = np.ones(m, dtype=bool)
    for t in terms:
        theta = (counts[t] + params.mu * index.collection_prob(t)) / denom
        valid &= theta > 0
        logs = np.array([math.log(v) if v > 0 else 0.0 for v in theta.tolist()])
        log_scores += (1.0 / len(terms)) * logs
    return np.where(valid, [math.exp(v) for v in log_scores.tolist()], 0.0)
