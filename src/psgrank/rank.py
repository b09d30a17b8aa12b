"""Passage rankings and passage-informed document re-ranking methods.

Covers the reciprocal-rank fusion of a document ranking with its best
passage's rank, per-document passage-rank statistics, joint
document+passage feature vectors (single passage, two passages, and
per-feature aggregates), two-stage fusion, and the unsupervised
similarity-interpolation and positional-LM passage scorers.

RRF reads each document's best passage rank from
:meth:`RankedList.best_passage_ranks`, in tuning and in the written run;
the JPDs and FPD passage picks read a passage ranking as a
:class:`PassageRanks` table of integer ranks. RRF and FPD fuse through
:func:`fusion_rows` alone: a tuning grid is its rows, and :func:`rerank_rrf`
and :func:`rerank_fpd` are one row of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import CorpusStore, Query
from .features import (
    DOC_SCHEMA,
    PSG_SCHEMA,
    FeatureMatrix,
    FeatureSchema,
    concat_schemas,
    query_similarities,
)
from .index import LmParams, PositionalIndex
from .passage import Passage, parse_passage_id

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

    def ranks(self) -> Mapping[str, int]:
        """Item id -> rank (the top item is 1); read-only, built once per list."""
        return self._ranks

    @cached_property
    def _ranks(self) -> Mapping[str, int]:
        return MappingProxyType(
            {item_id: r for r, (item_id, _) in enumerate(self.entries, start=1)}
        )

    def best_passage_ranks(self) -> Mapping[str, int]:
        """For a passage ranking: document id -> the best rank among its
        passages; read-only, built once per list."""
        return self._best_passage_ranks

    @cached_property
    def _best_passage_ranks(self) -> Mapping[str, int]:
        best: dict[str, int] = {}
        for r, (pid, _) in enumerate(self.entries, start=1):
            best.setdefault(parse_passage_id(pid)[0], r)
        return MappingProxyType(best)

    def rank_of(self, item_id: str) -> int:
        try:
            return self._ranks[item_id]
        except KeyError:
            raise ValueError(f"item {item_id!r} not in ranked list") from None


@dataclass(frozen=True)
class FusionParams:
    """nu shifts the reciprocal rank; alpha interpolates the two rankings."""

    nu: float = 60.0
    alpha: float = 0.5

    def __post_init__(self):
        if not self.nu >= 0:  # NaN too
            raise ValueError(f"nu must be >= 0, got {self.nu}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0,1], got {self.alpha}")


def rr_score(item_id: str, ranked: RankedList, nu: float) -> float:
    """1 / (nu + rank), with the top item at rank 1."""
    return 1.0 / (nu + ranked.rank_of(item_id))


def fusion_rows(
    doc_list: RankedList, other_ranks: Sequence[int], alphas: Sequence[float], nus: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Score(d) = alpha/(nu + r) + (1 - alpha)/(nu + r') at every
    (alphas[i], nus[i]) point, as row i, with r the rank of d in ``doc_list``
    and ``other_ranks`` each listed document's r', 0 for none, which gives a
    zero second term.

    Returns the scores and each row's positions in ``doc_list`` in the order
    of ``RankedList.from_scores``: by descending score, ties by ascending id.
    """
    ids = doc_list.ids()
    alpha = np.asarray(alphas, dtype=float)[:, None]
    nu = np.asarray(nus, dtype=float)[:, None]
    has = np.asarray(other_ranks) > 0
    term = np.where(has, 1.0 / (nu + np.where(has, other_ranks, 1)), 0.0)
    scores = alpha / (nu + np.arange(1, len(ids) + 1)) + (1.0 - alpha) * term
    id_rank = np.empty(len(ids), dtype=np.int64)
    id_rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return scores, np.lexsort((np.broadcast_to(id_rank, scores.shape), -scores), axis=-1)


def _fused(
    doc_list: RankedList, other_ranks: Mapping[str, int], params: FusionParams
) -> RankedList:
    """The one-row :func:`fusion_rows` run at ``params``, with that row's scores."""
    ids = doc_list.ids()
    scores, orders = fusion_rows(
        doc_list, [other_ranks.get(d, 0) for d in ids], [params.alpha], [params.nu]
    )
    row = scores[0].tolist()
    return RankedList(doc_list.query_id, tuple((ids[i], row[i]) for i in orders[0].tolist()))


def rerank_rrf(doc_list: RankedList, psg_list: RankedList, params: FusionParams) -> RankedList:
    """Fuse a document ranking with each document's best passage rank.

    Score(d) = alpha * 1/(nu + rank_doc) + (1 - alpha) * max over d's
    passages of 1/(nu + rank_psg); a document with no ranked passage gets
    a zero passage term.
    """
    # 1/(nu + r) falls with r, so the best passage rank gives the max.
    best = psg_list.best_passage_ranks()
    unknown = best.keys() - doc_list.ranks().keys()
    if unknown:
        raise ValueError(f"passages reference documents outside the list: {sorted(unknown)[:3]}")
    return _fused(doc_list, best, params)


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
        pstdev(rr) if n > 1 else 0.0,
        in50 / n,
        in100 / n,
        float(n),
    )


_WHICH_INDEX = {"best": 0, "second": 1, "third": 2}


class PassageRanks:
    """A passage ranking as the integer rank of every candidate passage.

    ``ranks`` lists the passages of ``passages_by_doc`` in passage order
    (its documents in order, each document's passages as segmented) with
    their rank in the ranking, 1 for the top and 0 for a passage it leaves
    out; ``bounds`` delimits each document's passages. Passages of other
    documents are ignored. The JPDs and FPD passage picks read it, so a
    ranking is looked up once.
    """

    def __init__(self, passages_by_doc: Mapping[str, Sequence[Passage]], psg_list: RankedList):
        rank_of = psg_list.ranks()
        self.doc_row = {d: i for i, d in enumerate(passages_by_doc)}
        self.passage_ids = [p.passage_id for plist in passages_by_doc.values() for p in plist]
        counts = np.array([len(plist) for plist in passages_by_doc.values()], dtype=np.int64)
        self.bounds = np.concatenate(([0], np.cumsum(counts)))
        self.ranks = np.array([rank_of.get(p, 0) for p in self.passage_ids], dtype=np.int64)
        ranked = self.ranks > 0
        owner = np.repeat(np.arange(len(counts)), counts)
        # Each document's passages, its ranked ones first and in rank order.
        self._by_rank = np.lexsort((np.where(ranked, self.ranks, len(psg_list) + 1), owner))
        self._ranked_count = np.bincount(owner[ranked], minlength=len(counts))

    def rows(self, doc_ids: Sequence[str]) -> np.ndarray:
        return np.array([self.doc_row[d] for d in doc_ids], dtype=np.int64)

    def passages_of(self, doc_id: str) -> list[str]:
        row = self.doc_row[doc_id]
        return self.passage_ids[self.bounds[row] : self.bounds[row + 1]]

    def picks(self, doc_ids: Sequence[str], which: str) -> np.ndarray:
        """Each document's best, second, third or lowest ranked passage, as
        a position in ``ranks``, or -1 when none is ranked; with fewer ranked
        passages than asked for, the lowest."""
        if which != "lowest" and which not in _WHICH_INDEX:
            raise ValueError(f"unknown passage selector: {which!r}")
        rows = self.rows(doc_ids)
        count = self._ranked_count[rows]
        nth = count - 1 if which == "lowest" else np.minimum(_WHICH_INDEX[which], count - 1)
        out = np.full(len(rows), -1, dtype=np.int64)
        has = count > 0
        out[has] = self._by_rank[self.bounds[rows[has]] + nth[has]]
        return out


def pstdev(values: Sequence[float]) -> float:
    """Population standard deviation of floats, correctly rounded.

    The variance is exact: every float is an integer over a power of two,
    so over their common denominator 2**k it is num / den with integers
    num = n * sum(x**2) - sum(x)**2 and den = n**2 * 4**k. Its root is
    rounded once, as ``statistics.pstdev`` does on Python >= 3.11 (without
    Fractions): an integer root with at least 2 * 53 + 3 bits, rounded to
    odd, then one correctly rounded int / int division.
    """
    ratios = [v.as_integer_ratio() for v in values]
    k = max(d.bit_length() for _, d in ratios) - 1
    nums = [p << (k + 1 - d.bit_length()) for p, d in ratios]
    n, total = len(nums), sum(nums)
    num, den = n * sum(x * x for x in nums) - total * total, n * n << (2 * k)
    q = (num.bit_length() - den.bit_length() - 109) // 2
    if q >= 0:
        den <<= 2 * q
    else:
        num <<= -2 * q
    root = math.isqrt(num // den)
    root |= root * root * den != num
    return float(root << q) if q >= 0 else root / (1 << -q)


@lru_cache(maxsize=64)
def _smpd_schema(doc_schema: FeatureSchema) -> FeatureSchema:
    """The document schema as ``d.*`` and the 7 statistics as ``p.*``, once per schema."""
    return concat_schemas(
        doc_schema, FeatureSchema("smpd-stats", SMPD_FEATURES),
        name="smpd", a_prefix="d.", b_prefix="p.",
    )


SMPD_SCHEMA = _smpd_schema(DOC_SCHEMA)


def build_smpd_vectors(
    doc_list: RankedList,
    doc_vectors: FeatureMatrix,
    passages_by_doc: Mapping[str, Sequence[Passage]],
    psg_list: RankedList,
    nu: float,
) -> FeatureMatrix:
    """Document rows extended with the 7 passage-rank statistics."""
    doc_ids = doc_list.ids()
    stats = np.array(
        [
            smpd_features([p.passage_id for p in passages_by_doc[d]], psg_list, nu)
            for d in doc_ids
        ],
        dtype=float,
    ).reshape(len(doc_ids), len(SMPD_FEATURES))
    values = np.concatenate([doc_vectors.take(doc_ids).values, stats], axis=1)
    return FeatureMatrix(_smpd_schema(doc_vectors.schema), doc_vectors.query_id, doc_ids, values)


def _fallback_by_query_sim(passage_ids: Sequence[str], psg_vectors: FeatureMatrix) -> str:
    # No ranked passage: pick by the passage-query similarity feature, or
    # the document's first passage if that feature was excluded.
    if "PsgQuerySim" not in psg_vectors.schema.features:
        return passage_ids[0]
    sims = psg_vectors.values[:, psg_vectors.schema.index_of("PsgQuerySim")]
    rows = psg_vectors.rows(passage_ids)
    return max(zip(passage_ids, rows), key=lambda pr: (sims[pr[1]], pr[0]))[0]


def _selected_ids(
    doc_ids: Sequence[str], psg_vectors: FeatureMatrix, psg_ranks: PassageRanks, which: str
) -> list[str]:
    """Each document's ``which`` passage, by query similarity when the
    document has no ranked passage."""
    ids = psg_ranks.passage_ids
    return [
        ids[pick] if pick >= 0 else _fallback_by_query_sim(psg_ranks.passages_of(d), psg_vectors)
        for d, pick in zip(doc_ids, psg_ranks.picks(doc_ids, which).tolist())
    ]


def jpds_schema(
    doc_schema: FeatureSchema = DOC_SCHEMA,
    psg_schema: FeatureSchema = PSG_SCHEMA,
    two_passages: bool = False,
) -> FeatureSchema:
    """Joint document+passage schema: the document features as ``d.*``, the
    passage's as ``p.*`` and, for two passages, the second's as ``p2.*``.

    The passage's DocQuerySim and QueryLength are left out, so over the full
    schemas it has 24 features. Excluding a feature already removed upstream
    (e.g. by the ablation harness) is a no-op.
    """
    present = set(psg_schema.features)
    schema = concat_schemas(
        doc_schema, psg_schema, name="jpd2" if two_passages else "jpds",
        a_prefix="d.", b_prefix="p.", exclusions={"DocQuerySim", "QueryLength"} & present,
    )
    if two_passages:
        schema = concat_schemas(
            schema, psg_schema, name="jpd2", b_prefix="p2.",
            exclusions=JPD2_SECOND_EXCLUSIONS & present,
        )
    return schema


def _source_columns(schema: FeatureSchema, prefix: str, source: FeatureSchema) -> list[int]:
    """The columns of ``source`` that ``schema`` holds under ``prefix``, in its order."""
    return [source.index_of(f[len(prefix):]) for f in schema.features if f.startswith(prefix)]


@lru_cache(maxsize=64)
def _jpds_layout(doc_schema: FeatureSchema, psg_schema: FeatureSchema, two_passages: bool):
    """The joint schema and its ``p.*`` (then ``p2.*``) passage columns, once per schema pair."""
    schema = jpds_schema(doc_schema, psg_schema, two_passages)
    prefixes = ("p.", "p2.") if two_passages else ("p.",)
    return (schema, *(tuple(_source_columns(schema, p, psg_schema)) for p in prefixes))


def build_jpds_vectors(
    doc_list: RankedList,
    doc_vectors: FeatureMatrix,
    psg_vectors: FeatureMatrix,
    psg_ranks: PassageRanks,
    which: str = "best",
    two_passages: bool = False,
) -> FeatureMatrix:
    """Joint document+selected-passage rows for every listed document.

    The selected passage's row is appended to the document row; the
    two-passage variant also appends the second-ranked passage's row
    with its redundant features removed.
    """
    schema, *columns = _jpds_layout(doc_vectors.schema, psg_vectors.schema, two_passages)
    doc_ids = doc_list.ids()

    def passage_rows(which: str, columns: tuple[int, ...]) -> np.ndarray:
        chosen = _selected_ids(doc_ids, psg_vectors, psg_ranks, which)
        rows = np.take(psg_vectors.values, psg_vectors.rows(chosen), axis=0)
        return rows[:, columns]

    # With fewer than two ranked passages the second pick is the first.
    blocks = [doc_vectors.take(doc_ids).values]
    blocks += [passage_rows(w, c) for w, c in zip((which, "second"), columns)]
    values = np.concatenate(blocks, axis=1)
    return FeatureMatrix(schema, doc_vectors.query_id, doc_ids, values)


def build_jpdm_vectors(
    doc_list: RankedList,
    doc_vectors: FeatureMatrix,
    psg_vectors: FeatureMatrix,
    passages_by_doc: Mapping[str, Sequence[Passage]],
    agg: str,
) -> FeatureMatrix:
    """Document rows extended with per-feature aggregates over ALL of the
    document's passages; independent of any passage ranking."""
    if agg not in ("avg", "max", "min"):
        raise ValueError(f"unknown aggregate: {agg!r}")
    psg_schema = psg_vectors.schema
    # Aggregating the passage-query similarity would duplicate the
    # max/avg-of-passage-similarities features, so avg and max drop it.
    exclusions = ({"PsgQuerySim"} if agg in ("avg", "max") else set()) & set(
        psg_schema.features
    )
    schema = concat_schemas(
        doc_vectors.schema, psg_schema, name=f"jpdm-{agg}", a_prefix="d.",
        b_prefix=f"{agg}.", exclusions=exclusions,
    )
    kept = _source_columns(schema, f"{agg}.", psg_schema)
    fn = {"avg": np.mean, "max": np.max, "min": np.min}[agg]
    doc_ids = doc_list.ids()
    aggs = []
    for doc_id in doc_ids:
        rows = psg_vectors.rows(p.passage_id for p in passages_by_doc[doc_id])
        # The fancy column index makes the operand F-ordered, as it always
        # was: its memory order fixes the summation order of the mean.
        aggs.append(fn(np.take(psg_vectors.values, rows, axis=0)[:, kept], axis=0))
    aggs = np.array(aggs, dtype=float).reshape(len(doc_ids), len(kept))
    values = np.concatenate([doc_vectors.take(doc_ids).values, aggs], axis=1)
    return FeatureMatrix(schema, doc_vectors.query_id, doc_ids, values)


def build_fpd_vectors(
    doc_list: RankedList, psg_vectors: FeatureMatrix, psg_ranks: PassageRanks
) -> FeatureMatrix:
    """Each listed document's best-ranked passage row, keyed by the document."""
    doc_ids = doc_list.ids()
    chosen = _selected_ids(doc_ids, psg_vectors, psg_ranks, "best")
    values = np.take(psg_vectors.values, psg_vectors.rows(chosen), axis=0)
    return FeatureMatrix(psg_vectors.schema, psg_vectors.query_id, doc_ids, values)


def rerank_fpd(
    doc_list: RankedList, model_ranking: RankedList, params: FusionParams
) -> RankedList:
    """Fuse the original document ranking with a ranking produced by a
    model over best-passage features, reciprocal-rank style on both."""
    return _fused(doc_list, model_ranking.ranks(), params)


def _normalize_by_sum(values: Mapping[str, float]) -> dict[str, float]:
    total = sum(values.values())
    if total <= 0:
        return {k: 0.0 for k in values}
    return {k: v / total for k, v in values.items()}


def check_weight(name: str, value: float) -> None:
    """Interpolation weights of QSF, PLM and DocPsg lie in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0,1], got {value}")


def check_sigma(sigma: float) -> None:
    """The positional kernel's width must be positive."""
    if not sigma > 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")


def plm_weights_feasible(lam: float, beta: float) -> bool:
    """lambda + beta <= 1, the one tolerance of the PLM grid and formula."""
    return lam + beta <= 1.0 + 1e-9


def qsf_from_sims(
    query_id: str,
    doc_sims: Mapping[str, float],
    psg_sims: Mapping[str, float],
    passages_by_doc: Mapping[str, Sequence[Passage]],
    lam: float,
    k: int | None = None,
) -> RankedList:
    """Interpolate sum-normalized passage-query and ambient-document-query
    similarities, (1 - lam) * norm sim(q, g) + lam * norm sim(q, d_g), over
    the passages of the documents of ``doc_sims``."""
    check_weight("lambda", lam)
    norm_psg = _normalize_by_sum(psg_sims)
    norm_doc = _normalize_by_sum(doc_sims)
    scores = {
        p.passage_id: (1.0 - lam) * norm_psg[p.passage_id] + lam * norm_doc[d]
        for d in doc_sims
        for p in passages_by_doc[d]
    }
    return RankedList.from_scores(query_id, scores, k=k)


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
    """QSF over the passages of ``doc_ids``; see :func:`qsf_from_sims`."""
    doc_sims, psg_sims = query_similarities(
        query.stems(), index, doc_ids, passages_by_doc, params
    )
    return qsf_from_sims(query.query_id, doc_sims, psg_sims, passages_by_doc, lam, k)


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
    check_sigma(sigma)
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


def best_positional_similarities(
    query: Query,
    store: CorpusStore,
    index: PositionalIndex,
    doc_ids: Sequence[str],
    passages_by_doc: Mapping[str, Sequence[Passage]],
    params: LmParams,
    sigma: float,
) -> dict[str, float]:
    """Each passage's best per-position similarity; 0 for an empty passage."""
    out = {}
    for d in doc_ids:
        for p in passages_by_doc[d]:
            scores = positional_similarities(query, store, index, p, params, sigma)
            out[p.passage_id] = float(scores.max()) if scores.size else 0.0
    return out


def plm_from_sims(
    query_id: str,
    doc_sims: Mapping[str, float],
    psg_sims: Mapping[str, float],
    pos_sims: Mapping[str, float],
    passages_by_doc: Mapping[str, Sequence[Passage]],
    lam: float,
    beta: float,
    k: int | None = None,
) -> RankedList:
    """lam * norm positional + beta * norm passage + (1 - lam - beta) *
    norm ambient-document similarity, each sum-normalized over its universe,
    over the passages of the documents of ``doc_sims``."""
    check_weight("lambda", lam)
    check_weight("beta", beta)
    if not plm_weights_feasible(lam, beta):
        raise ValueError(f"lambda + beta must be <= 1, got {lam} + {beta}")
    norm_pos = _normalize_by_sum(pos_sims)
    norm_psg = _normalize_by_sum(psg_sims)
    norm_doc = _normalize_by_sum(doc_sims)
    scores = {
        p.passage_id: lam * norm_pos[p.passage_id]
        + beta * norm_psg[p.passage_id]
        + (1.0 - lam - beta) * norm_doc[d]
        for d in doc_sims
        for p in passages_by_doc[d]
    }
    return RankedList.from_scores(query_id, scores, k=k)


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
    with the whole-passage and ambient-document similarities; see
    :func:`plm_from_sims`.
    """
    doc_sims, psg_sims = query_similarities(
        query.stems(), index, doc_ids, passages_by_doc, params
    )
    pos_sims = best_positional_similarities(
        query, store, index, doc_ids, passages_by_doc, params, sigma
    )
    return plm_from_sims(
        query.query_id, doc_sims, psg_sims, pos_sims, passages_by_doc, lam, beta, k
    )


def docpsg_from_sims(
    query_id: str,
    doc_sims: Mapping[str, float],
    psg_sims: Mapping[str, float],
    passages_by_doc: Mapping[str, Sequence[Passage]],
    doc_lengths: Mapping[str, int],
    lambda_max: float,
) -> RankedList:
    """Length-weighted interpolation of document and best-passage similarity
    over the documents of ``doc_sims``.

    lambda(d) = lambda_max * (1 - minmax(ln(1 + |d|))) over the candidate
    documents, so longer documents lean harder on their best passage; a
    constant-length candidate set degenerates to lambda_max everywhere.
    """
    check_weight("lambda_max", lambda_max)
    if not doc_sims:
        return RankedList(query_id, ())
    log_lens = {d: math.log1p(doc_lengths[d]) for d in doc_sims}
    lo, hi = min(log_lens.values()), max(log_lens.values())
    span = hi - lo
    scores = {}
    for d, doc_sim in doc_sims.items():
        mm = (log_lens[d] - lo) / span if span > 0 else 0.0
        lam_d = lambda_max * (1.0 - mm)
        best = max((psg_sims[p.passage_id] for p in passages_by_doc[d]), default=0.0)
        scores[d] = lam_d * doc_sim + (1.0 - lam_d) * best
    return RankedList.from_scores(query_id, scores)


def rank_docpsg(
    query: Query,
    store: CorpusStore,
    index: PositionalIndex,
    doc_ids: Sequence[str],
    passages_by_doc: Mapping[str, Sequence[Passage]],
    params: LmParams,
    lambda_max: float,
) -> RankedList:
    """DocPsg over ``doc_ids``; see :func:`docpsg_from_sims`."""
    doc_sims, psg_sims = query_similarities(
        query.stems(), index, doc_ids, passages_by_doc, params
    )
    return docpsg_from_sims(
        query.query_id, doc_sims, psg_sims, passages_by_doc, index.doc_lengths, lambda_max
    )


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
            try:
                entry = (item_id, float(score))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: score {score!r} is not a number") from None
            if qid not in per_query:
                per_query[qid] = []
                order.append(qid)
            per_query[qid].append(entry)
    return [RankedList(qid, tuple(per_query[qid])) for qid in order]
