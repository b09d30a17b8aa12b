"""Positional inverted index, Dirichlet-smoothed LM scoring, and SDM components.

The similarity between texts x and y is exp(-CE(mle(x) || dirichlet(y))),
the exponentiated negative cross entropy between x's unsmoothed unigram
model and y's Dirichlet-smoothed one. Natural logarithms are used
throughout; any fixed base yields identical rankings.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import CorpusStore, Document, Query

INDEX_VERSION = 1

# Substitute for log(0) in SDM sums; min-max normalization absorbs it.
LOG_FLOOR = -50.0


class IndexError_(ValueError):
    """Index build/load inconsistency."""


@dataclass
class LmParams:
    """Dirichlet smoothing pseudo-count."""

    mu: float = 1000.0

    def __post_init__(self):
        if self.mu < 0:
            raise ValueError(f"mu must be >= 0, got {self.mu}")


@dataclass
class SdmWeights:
    """Interpolation weights for unigram / ordered / unordered components."""

    w_unigram: float
    w_ordered: float
    w_unordered: float

    def __post_init__(self):
        for w in (self.w_unigram, self.w_ordered, self.w_unordered):
            if not 0.0 <= w <= 1.0:
                raise ValueError(f"weights must lie in [0,1], got {w}")
        if abs(self.w_unigram + self.w_ordered + self.w_unordered - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")


@dataclass
class PositionalIndex:
    """Stem -> (doc_id, positions) postings plus collection statistics."""

    postings: dict[str, list[tuple[str, list[int]]]]
    doc_lengths: dict[str, int]
    collection_term_counts: dict[str, int]
    collection_length: int
    doc_order: list[str]
    corpus_checksum: str
    _pair_cache: dict = field(default_factory=dict, repr=False)
    _postings_by_doc: dict = field(default_factory=dict, repr=False)
    _stem_arrays: dict = field(default_factory=dict, repr=False)
    _lm_logs: dict = field(default_factory=dict, repr=False)
    _idf: dict = field(default_factory=dict, repr=False)
    _doc_table: tuple | None = field(default=None, repr=False)

    def collection_prob(self, stem: str) -> float:
        count = self.collection_term_counts.get(stem, 0)
        if count == 0 or self.collection_length == 0:
            return 0.0
        return count / self.collection_length

    def doc_count(self) -> int:
        return len(self.doc_order)

    def document_frequency(self, stem: str) -> int:
        return len(self.postings.get(stem, ()))

    def idfs(self, stems: Iterable[str]) -> list[float | None]:
        """ln(N / df) of each stem, cached per stem; None for a stem no document holds."""
        stems = list(stems)
        cache = self._idf
        for stem in stems:
            if stem not in cache:
                df = self.document_frequency(stem)
                cache[stem] = math.log(self.doc_count() / df) if df else None
        return [cache[stem] for stem in stems]

    def positions(self, stem: str, doc_id: str) -> list[int]:
        by_doc = self._postings_by_doc.get(stem)
        if by_doc is None:
            by_doc = {d: p for d, p in self.postings.get(stem, ())}
            self._postings_by_doc[stem] = by_doc
        return by_doc.get(doc_id, [])

    def doc_table(self) -> tuple[list[str], dict[str, int], np.ndarray, np.ndarray]:
        """Doc ids in string order, each id's rank in it, the distinct document
        lengths (ascending), and each rank's slot among them."""
        if self._doc_table is None:
            ids = sorted(self.doc_lengths)
            lengths = np.array([self.doc_lengths[d] for d in ids], dtype=np.int64)
            distinct, slot = np.unique(lengths, return_inverse=True)
            self._doc_table = (ids, {d: r for r, d in enumerate(ids)}, distinct, slot)
        return self._doc_table

    def stem_arrays(self, stem: str) -> tuple[np.ndarray, np.ndarray]:
        """Doc ranks (see :meth:`doc_table`) and term frequencies of a stem's postings."""
        if stem not in self._stem_arrays:
            rank_of = self.doc_table()[1]
            plist = self.postings.get(stem, ())
            doc_ids, positions = zip(*plist) if plist else ((), ())
            self._stem_arrays[stem] = (
                np.fromiter(map(rank_of.__getitem__, doc_ids), np.int64, len(doc_ids)),
                np.fromiter(map(len, positions), np.int64, len(positions)),
            )
        return self._stem_arrays[stem]

    def lm_logs(self, stem: str, mu: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """ln theta of a stem under Dirichlet smoothing with ``mu``, cached per (stem, mu).

        Returns the doc ranks of the stem's postings (as :meth:`stem_arrays`),
        ln((tf + mu p_c) / (len + mu)) at each of them, and ln(mu p_c /
        (len + mu)), for a document lacking the stem, at each distinct
        length of :meth:`doc_table` (-inf where theta is 0). The logs come
        from :mod:`math`, so sums of them match :func:`lm_similarity` bit
        for bit. The table costs df + (distinct lengths) floats.
        """
        key = (stem, mu)
        got = self._lm_logs.get(key)
        if got is None:
            _, _, distinct, slot = self.doc_table()
            ranks, tf = self.stem_arrays(stem)
            smooth = mu * self.collection_prob(stem)
            denom = distinct + mu
            # theta > 0 at a posting (tf >= 1). A zero-length document holds
            # no stem, and at mu = 0 its denominator is 0: theta is 0 there.
            posting = (tf + smooth) / denom[slot[ranks]]
            posting = np.fromiter(map(math.log, posting.tolist()), float, len(ranks))
            background = np.divide(smooth, denom, out=np.zeros(len(denom)), where=denom > 0)
            background = _exact_log(background)
            posting.flags.writeable = background.flags.writeable = False
            got = self._lm_logs[key] = (ranks, posting, background)
        return got

    # -- collection-level pair statistics, computed lazily per query pair --

    def ordered_pair_count(self, a: str, b: str) -> int:
        key = ("o", a, b)
        cached = self._pair_cache.get(key)
        if cached is None:
            cached = self._scan_pairs(a, b, ordered=True)
            self._pair_cache[key] = cached
        return cached

    def window_pair_count(self, a: str, b: str, window: int = 8) -> int:
        key = ("u", a, b, window)
        cached = self._pair_cache.get(key)
        if cached is None:
            cached = self._scan_pairs(a, b, ordered=False, window=window)
            self._pair_cache[key] = cached
        return cached

    def _scan_pairs(self, a: str, b: str, ordered: bool, window: int = 8) -> int:
        docs_a = {d: p for d, p in self.postings.get(a, ())}
        docs_b = {d: p for d, p in self.postings.get(b, ())}
        total = 0
        for doc_id in docs_a.keys() & docs_b.keys():
            if ordered:
                total += count_ordered_pairs(docs_a[doc_id], docs_b[doc_id])
            else:
                total += count_window_pairs(docs_a[doc_id], docs_b[doc_id], a == b, window)
        return total

    # -- persistence --

    def save(self, path: str | Path) -> None:
        payload = {
            "version": INDEX_VERSION,
            "corpus_checksum": self.corpus_checksum,
            "collection_length": self.collection_length,
            "doc_order": self.doc_order,
            "doc_lengths": self.doc_lengths,
            "collection_term_counts": self.collection_term_counts,
            "postings": {t: [[d, p] for d, p in plist] for t, plist in self.postings.items()},
        }
        Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path, store: CorpusStore | None = None) -> "PositionalIndex":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if payload.get("version") != INDEX_VERSION:
            raise IndexError_(f"unsupported index version: {payload.get('version')}")
        if store is not None and payload["corpus_checksum"] != store.checksum():
            raise IndexError_("index does not match the corpus store (checksum mismatch)")
        return cls(
            postings={t: [(d, p) for d, p in plist] for t, plist in payload["postings"].items()},
            doc_lengths=payload["doc_lengths"],
            collection_term_counts=payload["collection_term_counts"],
            collection_length=payload["collection_length"],
            doc_order=payload["doc_order"],
            corpus_checksum=payload["corpus_checksum"],
        )


def build_index(store: CorpusStore) -> PositionalIndex:
    """Index every document's stem positions; validates store non-empty."""
    if len(store) == 0:
        raise IndexError_("cannot index an empty corpus store")
    postings: dict[str, list[tuple[str, list[int]]]] = defaultdict(list)
    doc_lengths = {}
    collection_term_counts: dict[str, int] = defaultdict(int)
    collection_length = 0
    for doc in store.documents:
        doc_lengths[doc.doc_id] = doc.length
        collection_length += doc.length
        per_doc: dict[str, list[int]] = defaultdict(list)
        for pos, stem in enumerate(doc.stems()):
            per_doc[stem].append(pos)
        for stem, positions in per_doc.items():
            postings[stem].append((doc.doc_id, positions))
            collection_term_counts[stem] += len(positions)
    return PositionalIndex(
        postings=dict(postings),
        doc_lengths=doc_lengths,
        collection_term_counts=dict(collection_term_counts),
        collection_length=collection_length,
        doc_order=store.doc_ids(),
        corpus_checksum=store.checksum(),
    )


def lm_similarity(
    terms: Sequence[str],
    counts: Mapping[str, float],
    length: float,
    index: PositionalIndex,
    params: LmParams,
) -> float:
    """exp(-cross-entropy) similarity between a term sequence and a text unit.

    ``counts``/``length`` describe the scored unit (document, passage, or a
    positional pseudo-document with fractional counts). Terms absent from
    the whole collection are dropped from the sequence before scoring; if
    all are dropped, or any kept term has zero smoothed probability
    (mu = 0 and no occurrence), the similarity is 0.
    """
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


def doc_lm_similarity(
    terms: Sequence[str], doc_id: str, index: PositionalIndex, params: LmParams
) -> float:
    """lm_similarity against an indexed document, counts read from postings."""
    counts = {t: len(index.positions(t, doc_id)) for t in set(terms)}
    return lm_similarity(terms, counts, index.doc_lengths[doc_id], index, params)


def _exact_log(x: np.ndarray) -> np.ndarray:
    """math.log of each entry (-inf where <= 0); numpy's SIMD log can differ in the last bit."""
    return np.array([math.log(v) if v > 0.0 else -math.inf for v in x.tolist()])


def lm_top_ranks(
    terms: Sequence[str], index: PositionalIndex, params: LmParams, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Doc ranks (see :meth:`PositionalIndex.doc_table`) and scores of the
    top k documents holding a kept term, best first.

    Scores are bit-identical to :func:`doc_lm_similarity` (run files record
    them with repr): the logs come from :meth:`PositionalIndex.lm_logs`,
    the ``inv_n * log(theta)`` summands are added in query order, repeats
    included, and exp comes from :mod:`math`. A zero theta (mu = 0) scores
    0. Zero scores are excluded and ties break by ascending doc id.
    """
    kept = [t for t in terms if index.collection_term_counts.get(t)]
    if not kept:
        return np.empty(0, dtype=np.intp), np.empty(0)
    slot = index.doc_table()[3]
    row_of = {t: row for row, t in enumerate(dict.fromkeys(kept))}
    tables = [index.lm_logs(t, params.mu) for t in row_of]
    posting_ranks = np.concatenate([ranks for ranks, _, _ in tables])
    is_cand = np.zeros(len(slot), dtype=bool)
    is_cand[posting_ranks] = True
    cand = np.flatnonzero(is_cand)
    # Row per distinct stem, column per candidate: the log of a document
    # lacking the stem, then the logs at its postings written over it.
    backgrounds = np.concatenate([background for _, _, background in tables])
    logs = backgrounds.reshape(len(tables), -1)[:, slot[cand]]
    rows = np.repeat(np.arange(len(tables)), [len(ranks) for ranks, _, _ in tables])
    column = np.cumsum(is_cand) - 1
    logs[rows, column[posting_ranks]] = np.concatenate([posting for _, posting, _ in tables])
    logs *= 1.0 / len(kept)
    if len(row_of) < len(kept):
        logs = logs[[row_of[t] for t in kept]]
    log_sum = np.zeros(len(cand))
    for summand in logs:
        log_sum += summand
    scores = np.fromiter(map(math.exp, log_sum.tolist()), float, len(cand))
    positive = scores > 0.0
    cand, scores = cand[positive], scores[positive]
    # Stable: tied scores keep ascending ranks, which is doc id order.
    order = np.argsort(-scores, kind="stable")[:k]
    return cand[order], scores[order]


def rank_documents_lm(
    terms: Sequence[str], index: PositionalIndex, params: LmParams, k: int
) -> list[tuple[str, float]]:
    """Top-k ``(doc_id, score)`` of :func:`lm_top_ranks`."""
    ids = index.doc_table()[0]
    ranks, scores = lm_top_ranks(terms, index, params, k)
    return [(ids[r], s) for r, s in zip(ranks.tolist(), scores.tolist())]


def retrieve_lm(query: Query, index: PositionalIndex, params: LmParams, k: int):
    """The top-k documents holding a query term, as a RankedList of :func:`rank_documents_lm`."""
    from .rank import RankedList

    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    entries = rank_documents_lm(query.stems(), index, params, k)
    return RankedList.from_scores(query.query_id, entries)


def count_ordered_pairs(positions_a: Sequence[int], positions_b: Sequence[int]) -> int:
    """Exact adjacencies: occurrences of a immediately followed by b."""
    b_set = set(positions_b)
    return sum(1 for p in positions_a if p + 1 in b_set)


def count_window_pairs(
    positions_a: Sequence[int],
    positions_b: Sequence[int],
    same_term: bool,
    window: int = 8,
) -> int:
    """Unordered co-occurrences of a and b within a window of `window` tokens.

    A pair of occurrences counts when both fit inside a span of `window`
    consecutive positions (|i - j| <= window - 1). For a == b, each
    unordered occurrence pair counts once.
    """
    span = window - 1
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


def sdm_components(
    query: Query, doc: Document, index: PositionalIndex, params: LmParams
) -> tuple[float, float, float]:
    """Log-domain unigram, ordered-bigram and unordered-window features.

    Each summand is ln of the Dirichlet-smoothed probability of the term
    (or adjacent query-term pair) in the document, smoothed against the
    matching collection statistic; ln(0) is floored at LOG_FLOOR. A
    single-term query has zero ordered/unordered components.
    """
    terms = query.stems()
    doc_len = doc.length
    denom = doc_len + params.mu

    def smoothed_log(count: float, collection_count: int) -> float:
        p_c = collection_count / index.collection_length if index.collection_length else 0.0
        if denom <= 0:
            return LOG_FLOOR
        theta = (count + params.mu * p_c) / denom
        if theta <= 0.0:
            return LOG_FLOOR
        return max(math.log(theta), LOG_FLOOR)

    counts = doc.stem_counts()
    f_t = sum(
        smoothed_log(counts.get(t, 0), index.collection_term_counts.get(t, 0)) for t in terms
    )

    f_o = 0.0
    f_u = 0.0
    if len(terms) >= 2:
        positions: dict[str, list[int]] = defaultdict(list)
        for pos, stem in enumerate(doc.stems()):
            positions[stem].append(pos)
        for a, b in zip(terms, terms[1:]):
            ord_count = count_ordered_pairs(positions.get(a, ()), positions.get(b, ()))
            win_count = count_window_pairs(positions.get(a, ()), positions.get(b, ()), a == b)
            f_o += smoothed_log(ord_count, index.ordered_pair_count(a, b))
            f_u += smoothed_log(win_count, index.window_pair_count(a, b))
    return f_t, f_o, f_u
