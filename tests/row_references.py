"""Per-row forms of the learned-ranker path and of the concept-space
feature, kept as references.

The package carries one FeatureMatrix per query and schema. These loops
build one FeatureVector, one score or one difference row at a time, in the
order the matrix code must reproduce, so tests can require ``==`` between
the two. Rank maps are rebuilt here on every call, as the loops once did.

Concept profiles are id -> value dicts here, scored one document at a time
by the scalar LM formula; the package keeps them as rank arrays scored from
cached log tables.

The document store is one Token per match here, and the index, sentence
breaks and stopword priors read those tokens; the package keeps token
columns. ExactMatch compares a list pair per window.
"""

import math
import re
from collections import defaultdict

import numpy as np

from psgrank.corpus import Token
from psgrank.features import (
    DOC_SCHEMA, FeatureSchema, FeatureVector, _cosine, concat, concat_schemas,
)
from psgrank.index import doc_lm_similarity
from psgrank.rank import (
    JPD2_SECOND_EXCLUSIONS, SMPD_FEATURES, SMPD_SCHEMA, RankedList, smpd_features,
)


def ranks(ranked) -> dict[str, int]:
    return {item_id: r for r, (item_id, _) in enumerate(ranked.entries, start=1)}


def difference_rows(examples, max_pairs: int, seed: int) -> np.ndarray:
    """x_hi - x_lo for every within-query pair with grade_hi > grade_lo:
    queries by id, items by id, hi outer and lo inner; then a seeded
    subsample of max_pairs rows kept in order."""
    groups = {}
    for ex in examples:
        groups.setdefault(ex.query_id, []).append(ex)
    diffs = []
    for qid in sorted(groups):
        group = sorted(groups[qid], key=lambda e: e.item_id)
        for hi in group:
            for lo in group:
                if hi.grade > lo.grade:
                    diffs.append(np.subtract(hi.vector.values, lo.vector.values))
    mat = np.array(diffs, dtype=float)
    if len(mat) > max_pairs:
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(len(mat), size=max_pairs, replace=False))
        mat = mat[keep]
    return mat


def minmax_rows(vectors) -> list[FeatureVector]:
    mat = np.array([v.values for v in vectors], dtype=float)
    lo = mat.min(axis=0)
    hi = mat.max(axis=0)
    span = hi - lo
    safe = np.where(span > 0, span, 1.0)
    normed = np.where(span > 0, (mat - lo) / safe, 0.0)
    return [
        FeatureVector(v.schema, tuple(row), v.query_id, v.item_id)
        for row, v in zip(normed, vectors)
    ]


def score_rows(weights, vectors) -> dict[str, float]:
    w = np.array(weights)
    return {v.item_id: float(np.dot(w, v.values)) for v in vectors}


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


def _fallback(doc_passages, psg_vectors):
    schema = psg_vectors[doc_passages[0].passage_id].schema
    if "PsgQuerySim" not in schema.features:
        return doc_passages[0]
    return max(
        doc_passages,
        key=lambda p: (psg_vectors[p.passage_id].value_of("PsgQuerySim"), p.passage_id),
    )


def smpd_rows(doc_list, doc_vectors, passages_by_doc, psg_list, nu):
    out = []
    for doc_id, _ in doc_list:
        stats = smpd_features([p.passage_id for p in passages_by_doc[doc_id]], psg_list, nu)
        dv = doc_vectors[doc_id]
        schema = (
            SMPD_SCHEMA
            if dv.schema == DOC_SCHEMA
            else concat_schemas(
                dv.schema, FeatureSchema("smpd-stats", SMPD_FEATURES),
                name="smpd", a_prefix="d.", b_prefix="p.",
            )
        )
        out.append(FeatureVector(schema, tuple(dv.values) + tuple(stats), dv.query_id, doc_id))
    return out


def jpds_rows(
    doc_list, doc_vectors, psg_vectors, passages_by_doc, psg_list, which="best",
    two_passages=False, include_query_length=False,
):
    base = {"DocQuerySim"} if include_query_length else {"DocQuerySim", "QueryLength"}
    out = []
    for doc_id, _ in doc_list:
        passages = passages_by_doc[doc_id]
        chosen = select_passage(passages, psg_list, which)
        if chosen is None:
            chosen = _fallback(passages, psg_vectors)
        psg_features = set(psg_vectors[chosen.passage_id].schema.features)
        vec = concat(
            doc_vectors[doc_id], psg_vectors[chosen.passage_id],
            exclusions=base & psg_features, name="jpd2" if two_passages else "jpds",
            a_prefix="d.", b_prefix="p.",
        )
        if two_passages:
            second = select_passage(passages, psg_list, "second")
            if second is None:
                second = chosen
            vec = concat(
                vec, psg_vectors[second.passage_id],
                exclusions=JPD2_SECOND_EXCLUSIONS & psg_features, name="jpd2", b_prefix="p2.",
            )
        out.append(FeatureVector(vec.schema, vec.values, vec.query_id, doc_id))
    return out


def jpdm_rows(doc_list, doc_vectors, psg_vectors, passages_by_doc, agg):
    out = []
    for doc_id, _ in doc_list:
        passages = passages_by_doc[doc_id]
        psg_schema = psg_vectors[passages[0].passage_id].schema
        exclusions = ({"PsgQuerySim"} if agg in ("avg", "max") else set()) & set(
            psg_schema.features
        )
        schema = concat_schemas(
            doc_vectors[doc_id].schema, psg_schema, name=f"jpdm-{agg}", a_prefix="d.",
            b_prefix=f"{agg}.", exclusions=exclusions,
        )
        kept = [psg_schema.index_of(f) for f in psg_schema.features if f not in exclusions]
        fn = {"avg": np.mean, "max": np.max, "min": np.min}[agg]
        mat = np.array([psg_vectors[p.passage_id].values for p in passages], dtype=float)
        agg_vals = fn(mat[:, kept], axis=0)
        dv = doc_vectors[doc_id]
        out.append(
            FeatureVector(
                schema, tuple(dv.values) + tuple(float(v) for v in agg_vals), dv.query_id, doc_id
            )
        )
    return out


def fpd_rows(doc_list, psg_vectors, passages_by_doc, psg_list):
    out = []
    for doc_id, _ in doc_list:
        passages = passages_by_doc[doc_id]
        chosen = select_passage(passages, psg_list, "best")
        if chosen is None:
            chosen = _fallback(passages, psg_vectors)
        base = psg_vectors[chosen.passage_id]
        out.append(FeatureVector(base.schema, base.values, base.query_id, doc_id))
    return out


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


def lm_top_k(terms, index, params, k):
    """The scalar formula over every document holding a kept term, zero
    scores dropped, top k by score with ties by id."""
    kept = {t for t in terms if index.collection_term_counts.get(t)}
    scores = {}
    for doc_id in {d for t in kept for d, _ in index.postings[t]}:
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

