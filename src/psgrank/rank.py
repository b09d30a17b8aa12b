"""Passage rankings and passage-informed document re-ranking methods.

Covers the reciprocal-rank fusion of a document ranking with its best
passage's rank, per-document passage-rank statistics, joint
document+passage feature vectors (single passage, two passages, and
per-feature aggregates), two-stage fusion, and the unsupervised
similarity-interpolation and positional-LM passage scorers.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import CorpusStore, Query
from .features import (
    DOC_SCHEMA,
    PSG_SCHEMA,
    FeatureSchema,
    FeatureVector,
    concat,
    concat_schemas,
)
from .index import LmParams, PositionalIndex, lm_similarity, doc_lm_similarity
from .passage import Passage, parse_passage_id, passage_term_counts

SMPD_FEATURES = ("max", "min", "avg", "std", "top50", "top100", "numPsg")

JPD2_SECOND_EXCLUSIONS = frozenset(
    {"DocQuerySim", "MaxPDSim", "AvgPDSim", "StdPDSim", "QueryLength"}
)


@dataclass(frozen=True)
class RankedList:
    """Ordered (item_id, score) pairs for one query.

    Scores are non-increasing, ids unique, and ties are ordered by
    ascending item id; every producer in the package goes through
    :meth:`from_scores` so the total order is reproducible.
    """

    query_id: str
    entries: tuple[tuple[str, float], ...]

    def __post_init__(self):
        prev_score = None
        prev_id = None
        seen = set()
        for item_id, score in self.entries:
            if item_id in seen:
                raise ValueError(f"duplicate item id in ranked list: {item_id!r}")
            seen.add(item_id)
            if prev_score is not None:
                if score > prev_score:
                    raise ValueError("ranked list scores must be non-increasing")
                if score == prev_score and item_id < prev_id:
                    raise ValueError("ties must be ordered by ascending item id")
            prev_score, prev_id = score, item_id

    @classmethod
    def from_scores(
        cls,
        query_id: str,
        scores: Mapping[str, float] | Iterable[tuple[str, float]],
        k: int | None = None,
    ) -> "RankedList":
        items = scores.items() if isinstance(scores, Mapping) else scores
        ordered = sorted(items, key=lambda kv: (-kv[1], kv[0]))
        if k is not None:
            ordered = ordered[:k]
        return cls(query_id, tuple((i, float(s)) for i, s in ordered))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def ids(self) -> list[str]:
        return [i for i, _ in self.entries]

    def ranks(self) -> dict[str, int]:
        return {item_id: r for r, (item_id, _) in enumerate(self.entries, start=1)}

    def rank_of(self, item_id: str) -> int:
        for r, (i, _) in enumerate(self.entries, start=1):
            if i == item_id:
                return r
        raise ValueError(f"item {item_id!r} not in ranked list")

    def truncated(self, k: int) -> "RankedList":
        return RankedList(self.query_id, self.entries[:k])


@dataclass(frozen=True)
class FusionParams:
    """nu shifts the reciprocal rank; alpha interpolates the two rankings."""

    nu: float = 60.0
    alpha: float = 0.5

    def __post_init__(self):
        if self.nu < 0:
            raise ValueError(f"nu must be >= 0, got {self.nu}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0,1], got {self.alpha}")


def rr_score(item_id: str, ranked: RankedList, nu: float) -> float:
    """1 / (nu + rank), with the top item at rank 1."""
    return 1.0 / (nu + ranked.rank_of(item_id))


def _group_passages_by_doc(psg_list: RankedList) -> dict[str, list[str]]:
    by_doc: dict[str, list[str]] = {}
    for pid, _ in psg_list:
        doc_id, _ = parse_passage_id(pid)
        by_doc.setdefault(doc_id, []).append(pid)
    return by_doc


def rerank_rrf(doc_list: RankedList, psg_list: RankedList, params: FusionParams) -> RankedList:
    """Fuse a document ranking with each document's best passage rank.

    Score(d) = alpha * 1/(nu + rank_doc) + (1 - alpha) * max over d's
    passages of 1/(nu + rank_psg); a document with no ranked passage gets
    a zero passage term.
    """
    doc_ranks = doc_list.ranks()
    by_doc = _group_passages_by_doc(psg_list)
    unknown = set(by_doc) - set(doc_ranks)
    if unknown:
        raise ValueError(f"passages reference documents outside the list: {sorted(unknown)[:3]}")
    psg_ranks = psg_list.ranks()
    scores = {}
    for doc_id, rank in doc_ranks.items():
        best = max(
            (1.0 / (params.nu + psg_ranks[p]) for p in by_doc.get(doc_id, ())),
            default=0.0,
        )
        scores[doc_id] = params.alpha / (params.nu + rank) + (1.0 - params.alpha) * best
    return RankedList.from_scores(doc_list.query_id, scores)


def smpd_features(
    doc_passage_ids: Sequence[str], psg_list: RankedList, nu: float
) -> tuple[float, float, float, float, float, float, float]:
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
    return (
        max(rr),
        min(rr),
        sum(rr) / n,
        statistics.pstdev(rr) if n > 1 else 0.0,
        in50 / n,
        in100 / n,
        float(n),
    )


SMPD_SCHEMA = concat_schemas(
    DOC_SCHEMA,
    FeatureSchema("smpd-stats", SMPD_FEATURES),
    name="smpd",
    a_prefix="d.",
    b_prefix="p.",
)


def build_smpd_vectors(
    doc_list: RankedList,
    doc_vectors: Mapping[str, FeatureVector],
    passages_by_doc: Mapping[str, Sequence[Passage]],
    psg_list: RankedList,
    nu: float,
) -> list[FeatureVector]:
    """Document vectors extended with the 7 passage-rank statistics."""
    out = []
    schema = None
    for doc_id, _ in doc_list:
        stats = smpd_features(
            [p.passage_id for p in passages_by_doc[doc_id]], psg_list, nu
        )
        dv = doc_vectors[doc_id]
        if schema is None:
            schema = (
                SMPD_SCHEMA
                if dv.schema == DOC_SCHEMA
                else concat_schemas(
                    dv.schema, FeatureSchema("smpd-stats", SMPD_FEATURES),
                    name="smpd", a_prefix="d.", b_prefix="p.",
                )
            )
        out.append(
            FeatureVector(
                schema=schema,
                values=tuple(dv.values) + tuple(stats),
                query_id=dv.query_id,
                item_id=doc_id,
            )
        )
    return out


_WHICH_INDEX = {"best": 0, "second": 1, "third": 2}


def select_passage(
    doc_passages: Sequence[Passage], psg_list: RankedList, which: str
) -> Passage | None:
    """The document's best/second/third/lowest passage by global rank.

    Documents with fewer ranked passages than requested fall back to their
    lowest-ranked passage; returns None when no passage is ranked at all.
    """
    psg_ranks = psg_list.ranks()
    ranked = sorted(
        (p for p in doc_passages if p.passage_id in psg_ranks),
        key=lambda p: psg_ranks[p.passage_id],
    )
    if not ranked:
        return None
    if which == "lowest":
        return ranked[-1]
    try:
        idx = _WHICH_INDEX[which]
    except KeyError:
        raise ValueError(f"unknown passage selector: {which!r}") from None
    return ranked[idx] if idx < len(ranked) else ranked[-1]


def _fallback_by_query_sim(
    doc_passages: Sequence[Passage], psg_vectors: Mapping[str, FeatureVector]
) -> Passage:
    # No ranked passage: pick by the passage-query similarity feature, or
    # the document's first passage if that feature was excluded.
    schema = psg_vectors[doc_passages[0].passage_id].schema
    if "PsgQuerySim" not in schema.features:
        return doc_passages[0]
    return max(
        doc_passages,
        key=lambda p: (psg_vectors[p.passage_id].value_of("PsgQuerySim"), p.passage_id),
    )


def jpds_schema(include_query_length: bool = False, two_passages: bool = False):
    """Joint document+passage schema; 24 features without QueryLength, 25 with."""
    exclusions = {"DocQuerySim"} if include_query_length else {"DocQuerySim", "QueryLength"}
    schema = concat_schemas(
        DOC_SCHEMA,
        PSG_SCHEMA,
        name="jpd2" if two_passages else "jpds",
        a_prefix="d.",
        b_prefix="p.",
        exclusions=exclusions,
    )
    if two_passages:
        schema = concat_schemas(
            schema,
            PSG_SCHEMA,
            name="jpd2",
            b_prefix="p2.",
            exclusions=JPD2_SECOND_EXCLUSIONS,
        )
    return schema


def build_jpds_vectors(
    doc_list: RankedList,
    doc_vectors: Mapping[str, FeatureVector],
    psg_vectors: Mapping[str, FeatureVector],
    passages_by_doc: Mapping[str, Sequence[Passage]],
    psg_list: RankedList,
    which: str = "best",
    two_passages: bool = False,
    include_query_length: bool = False,
) -> list[FeatureVector]:
    """Joint document+selected-passage vectors for every listed document.

    The selected passage's vector is appended to the document vector; the
    two-passage variant also appends the second-ranked passage's vector
    with its redundant features removed.
    """
    base_exclusions = (
        {"DocQuerySim"} if include_query_length else {"DocQuerySim", "QueryLength"}
    )
    out = []
    exclusions = second_exclusions = None
    for doc_id, _ in doc_list:
        passages = passages_by_doc[doc_id]
        chosen = select_passage(passages, psg_list, which)
        if chosen is None:
            chosen = _fallback_by_query_sim(passages, psg_vectors)
        psg_schema = psg_vectors[chosen.passage_id].schema
        if exclusions is None:
            # Exclusions are a no-op for features already removed upstream
            # (e.g. by the ablation harness).
            exclusions = base_exclusions & set(psg_schema.features)
            second_exclusions = JPD2_SECOND_EXCLUSIONS & set(psg_schema.features)
        vec = concat(
            doc_vectors[doc_id],
            psg_vectors[chosen.passage_id],
            exclusions=exclusions,
            name="jpd2" if two_passages else "jpds",
            a_prefix="d.",
            b_prefix="p.",
        )
        if two_passages:
            second = select_passage(passages, psg_list, "second")
            if second is None:
                second = chosen
            vec = concat(
                vec,
                psg_vectors[second.passage_id],
                exclusions=second_exclusions,
                name="jpd2",
                b_prefix="p2.",
            )
        out.append(FeatureVector(vec.schema, vec.values, vec.query_id, doc_id))
    return out


def build_jpdm_vectors(
    doc_list: RankedList,
    doc_vectors: Mapping[str, FeatureVector],
    psg_vectors: Mapping[str, FeatureVector],
    passages_by_doc: Mapping[str, Sequence[Passage]],
    agg: str,
) -> list[FeatureVector]:
    """Document vectors extended with per-feature aggregates over ALL of the
    document's passages; independent of any passage ranking."""
    if agg not in ("avg", "max", "min"):
        raise ValueError(f"unknown aggregate: {agg!r}")
    if not len(doc_list):
        return []
    first_doc = doc_list.entries[0][0]
    doc_schema = doc_vectors[first_doc].schema
    psg_schema = psg_vectors[passages_by_doc[first_doc][0].passage_id].schema
    # Aggregating the passage-query similarity would duplicate the
    # max/avg-of-passage-similarities features, so avg and max drop it.
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
        mat = np.array(
            [psg_vectors[p.passage_id].values for p in passages_by_doc[doc_id]], dtype=float
        )
        agg_vals = fn(mat[:, kept], axis=0)
        dv = doc_vectors[doc_id]
        out.append(
            FeatureVector(
                schema=schema,
                values=tuple(dv.values) + tuple(float(v) for v in agg_vals),
                query_id=dv.query_id,
                item_id=doc_id,
            )
        )
    return out


def rerank_fpd(
    doc_list: RankedList, model_ranking: RankedList, params: FusionParams
) -> RankedList:
    """Fuse the original document ranking with a ranking produced by a
    model over best-passage features, reciprocal-rank style on both."""
    doc_ranks = doc_list.ranks()
    model_ranks = model_ranking.ranks()
    scores = {}
    for doc_id, rank in doc_ranks.items():
        mrank = model_ranks.get(doc_id)
        passage_term = 1.0 / (params.nu + mrank) if mrank is not None else 0.0
        scores[doc_id] = params.alpha / (params.nu + rank) + (1.0 - params.alpha) * passage_term
    return RankedList.from_scores(doc_list.query_id, scores)


def _normalize_by_sum(values: Mapping[str, float]) -> dict[str, float]:
    total = sum(values.values())
    if total <= 0:
        return {k: 0.0 for k in values}
    return {k: v / total for k, v in values.items()}


def rank_qsf(
    query: Query,
    store: CorpusStore,
    index: PositionalIndex,
    doc_ids: Sequence[str],
    passages_by_doc: Mapping[str, Sequence[Passage]],
    params: LmParams,
    lam: float,
    k: int | None = None,
) -> RankedList:
    """Interpolate sum-normalized passage-query and ambient-document-query
    similarities: (1 - lam) * norm sim(q, g) + lam * norm sim(q, d_g)."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0,1], got {lam}")
    terms = query.stems()
    doc_sims = {d: doc_lm_similarity(terms, d, index, params) for d in doc_ids}
    psg_sims = {}
    psg_doc = {}
    for d in doc_ids:
        doc = store.get(d)
        for p in passages_by_doc[d]:
            counts = passage_term_counts(doc, p)
            psg_sims[p.passage_id] = lm_similarity(terms, counts, p.length, index, params)
            psg_doc[p.passage_id] = d
    norm_doc = _normalize_by_sum(doc_sims)
    norm_psg = _normalize_by_sum(psg_sims)
    scores = {
        pid: (1.0 - lam) * norm_psg[pid] + lam * norm_doc[psg_doc[pid]] for pid in psg_sims
    }
    return RankedList.from_scores(query.query_id, scores, k=k)


def positional_similarities(
    query: Query,
    store: CorpusStore,
    index: PositionalIndex,
    p: Passage,
    params: LmParams,
    sigma: float,
) -> np.ndarray:
    """Query similarity of the Gaussian-kernel pseudo-document at every
    position of the passage; empty passages give an empty array."""
    doc = store.get(p.doc_id)
    start, end = p.token_range
    stems = doc.stems()[start:end]
    m = len(stems)
    if m == 0:
        return np.zeros(0)
    terms = [t for t in query.stems() if index.collection_term_counts.get(t)]
    if not terms:
        return np.zeros(m)
    idx = np.arange(m, dtype=float)
    kernel = np.exp(-((idx[:, None] - idx[None, :]) ** 2) / (2.0 * sigma * sigma))
    z = kernel.sum(axis=1)
    denom = z + params.mu
    log_scores = np.zeros(m)
    inv_n = 1.0 / len(terms)
    counts = {}
    for t in set(terms):
        positions = [i for i, s in enumerate(stems) if s == t]
        counts[t] = kernel[:, positions].sum(axis=1) if positions else np.zeros(m)
    valid = np.ones(m, dtype=bool)
    for t in terms:
        p_c = index.collection_prob(t)
        theta = (counts[t] + params.mu * p_c) / denom
        term_valid = theta > 0
        valid &= term_valid
        with np.errstate(divide="ignore"):
            log_scores += inv_n * np.where(term_valid, np.log(np.where(term_valid, theta, 1.0)), 0.0)
    scores = np.where(valid, np.exp(log_scores), 0.0)
    return scores


def rank_plm(
    query: Query,
    store: CorpusStore,
    index: PositionalIndex,
    doc_ids: Sequence[str],
    passages_by_doc: Mapping[str, Sequence[Passage]],
    params: LmParams,
    sigma: float,
    lam: float,
    beta: float,
    k: int | None = None,
) -> RankedList:
    """Positional LM scoring with a Gaussian kernel.

    Each passage contributes its best per-position similarity (the position
    whose kernel-weighted pseudo-document scores highest), interpolated
    with the whole-passage and ambient-document similarities; all three
    components are sum-normalized over their universes.
    """
    if lam + beta > 1.0 + 1e-12:
        raise ValueError(f"lambda + beta must be <= 1, got {lam} + {beta}")
    terms = query.stems()
    doc_sims = {d: doc_lm_similarity(terms, d, index, params) for d in doc_ids}
    psg_sims = {}
    pos_sims = {}
    psg_doc = {}
    for d in doc_ids:
        doc = store.get(d)
        for p in passages_by_doc[d]:
            counts = passage_term_counts(doc, p)
            psg_sims[p.passage_id] = lm_similarity(terms, counts, p.length, index, params)
            scores = positional_similarities(query, store, index, p, params, sigma)
            pos_sims[p.passage_id] = float(scores.max()) if scores.size else 0.0
            psg_doc[p.passage_id] = d
    norm_doc = _normalize_by_sum(doc_sims)
    norm_psg = _normalize_by_sum(psg_sims)
    norm_pos = _normalize_by_sum(pos_sims)
    scores = {
        pid: lam * norm_pos[pid]
        + beta * norm_psg[pid]
        + (1.0 - lam - beta) * norm_doc[psg_doc[pid]]
        for pid in psg_sims
    }
    return RankedList.from_scores(query.query_id, scores, k=k)


def rank_docpsg(
    query: Query,
    store: CorpusStore,
    index: PositionalIndex,
    doc_ids: Sequence[str],
    passages_by_doc: Mapping[str, Sequence[Passage]],
    params: LmParams,
    lambda_max: float,
) -> RankedList:
    """Length-weighted interpolation of document and best-passage similarity.

    lambda(d) = lambda_max * (1 - minmax(ln(1 + |d|))) over the candidate
    documents, so longer documents lean harder on their best passage; a
    constant-length candidate set degenerates to lambda_max everywhere.
    """
    terms = query.stems()
    log_lens = {d: math.log1p(index.doc_lengths[d]) for d in doc_ids}
    lo, hi = min(log_lens.values()), max(log_lens.values())
    span = hi - lo
    scores = {}
    for d in doc_ids:
        mm = (log_lens[d] - lo) / span if span > 0 else 0.0
        lam_d = lambda_max * (1.0 - mm)
        doc = store.get(d)
        best = max(
            (
                lm_similarity(terms, passage_term_counts(doc, p), p.length, index, params)
                for p in passages_by_doc[d]
            ),
            default=0.0,
        )
        scores[d] = lam_d * doc_lm_similarity(terms, d, index, params) + (1.0 - lam_d) * best
    return RankedList.from_scores(query.query_id, scores)


def write_trec_run(path: str | Path, runs: Sequence[RankedList], tag: str) -> None:
    """TREC run format: query_id Q0 item_id rank score tag (full-precision
    scores so a reread reproduces the exact ordering)."""
    with Path(path).open("w", encoding="utf-8") as f:
        for run in runs:
            for rank, (item_id, score) in enumerate(run.entries, start=1):
                f.write(f"{run.query_id} Q0 {item_id} {rank} {score!r} {tag}\n")


def read_trec_run(path: str | Path) -> list[RankedList]:
    """Read a TREC run file, preserving file order within each query."""
    per_query: dict[str, list[tuple[str, float]]] = {}
    order: list[str] = []
    with Path(path).open(encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 6:
                raise ValueError(f"{path}:{lineno}: expected 6 whitespace-separated fields")
            qid, _, item_id, _, score, _ = parts
            if qid not in per_query:
                per_query[qid] = []
                order.append(qid)
            per_query[qid].append((item_id, float(score)))
    return [RankedList(qid, tuple(per_query[qid])) for qid in order]
