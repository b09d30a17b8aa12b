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
tables.

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
and picks from a PassageRanks table.

NDCG is a scalar loop here: ``dcg_at_k`` adds one rank at a time, and the
coordinate-ascent objective sorts each query's (id, score) pairs with
``sorted`` and recomputes its ideal DCG on every call. iP walks a run one
passage at a time, subtracting the characters already covered in its
document and intersecting the rest with the merged relevant spans. The
package runs both as array passes over all queries or all ranks at once.
"""

import json
import math
import re
from bisect import bisect_left
from collections import Counter, defaultdict

import numpy as np

from psgrank.corpus import Token
from psgrank.features import (
    DOC_SCHEMA, FeatureMatrix, FeatureSchema, _cosine, concat_schemas, esa_retrieval_profile,
)
from psgrank.features import profile_cosine as concept_cosine
from psgrank.evaluation import MAIP_RECALL_POINTS, JudgmentError
from psgrank.index import INDEX_VERSION, LOG_FLOOR, SDM_WINDOW
from psgrank.passage import merge_intervals, neighbors
from psgrank.rank import (
    JPD2_SECOND_EXCLUSIONS, SMPD_FEATURES, SMPD_SCHEMA, FusionParams, RankedList, smpd_features,
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


def pairwise_hinge(diffs, c: float, epochs: int, learning_rate: float):
    """The hinge trainer's epoch loop over a difference matrix, with one
    product for the epoch's violations and another for its error count.
    Returns the best weights as floats and their epoch (-1: the zero start)."""
    w = np.zeros(diffs.shape[1])
    best_w, best_epoch = w.copy(), -1
    best_err = int(np.sum(diffs @ w <= 0.0))
    for t in range(epochs):
        margins = diffs @ w
        violating = margins < 1.0
        grad = w - c * diffs[violating].sum(axis=0)
        w = w - (learning_rate / (1.0 + t)) * grad
        err = int(np.sum(diffs @ w <= 0.0))
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


def score_rows(weights, rows) -> dict[str, float]:
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


def smpd_rows(doc_list, docs, passages_by_doc, psg_list, nu):
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
    for doc_id, _ in doc_list:
        stats = smpd_features([p.passage_id for p in passages_by_doc[doc_id]], psg_list, nu)
        out.append((doc_id, tuple(doc_values[doc_id]) + tuple(stats)))
    return schema, out


def jpds_rows(doc_list, docs, psgs, passages_by_doc, psg_list, which="best", two_passages=False):
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
    for doc_id, _ in doc_list:
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


def jpdm_rows(doc_list, docs, psgs, passages_by_doc, agg):
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
    for doc_id, _ in doc_list:
        mat = np.array([psg_values[p.passage_id] for p in passages_by_doc[doc_id]], dtype=float)
        agg_vals = fn(mat[:, kept], axis=0)
        out.append((doc_id, tuple(doc_values[doc_id]) + tuple(float(v) for v in agg_vals)))
    return schema, out


def fpd_rows(doc_list, psgs, passages_by_doc, psg_list):
    psg_schema, psg_values = psgs
    out = []
    for doc_id, _ in doc_list:
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
    JPDs variants build rows from the passage ranking with select_passage.
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
        return matrix_of(q, fpd_rows(run.c_ltr(q), psgs, by_doc, run.passage_ranking(q)))

    def jpds(which, two_passages):
        def vectors(run, q, p):
            docs = table_of(run.pipe.doc_vectors(q, run.params["init-LTR"]["mu"]))
            psgs = table_of(run.pipe.psg_vectors(q, run.psg_feature_mu()))
            by_doc = run.pipe.query_data(q).passages_by_doc
            return matrix_of(q, jpds_rows(
                run.c_ltr(q), docs, psgs, by_doc, run.passage_ranking(q), which, two_passages
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
            hit = analysis[surface] = (stemmer.stem(lower), lower in stopwords)
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
        profile = esa_retrieval_profile(keywords, ex.resources.esa_index, ex.params)
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
        sim / ex.psg_sim_sum if ex.psg_sim_sum > 0 else 0.0,
        doc_sim / ex.doc_sim_sum if ex.doc_sim_sum > 0 else 0.0,
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
