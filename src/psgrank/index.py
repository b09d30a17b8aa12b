"""Positional inverted index, Dirichlet-smoothed LM scoring, and SDM components.

The similarity between texts x and y is exp(-CE(mle(x) || dirichlet(y))),
the exponentiated negative cross entropy between x's unsmoothed unigram
model and y's Dirichlet-smoothed one. Natural logarithms are used
throughout; any fixed base yields identical rankings.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .corpus import CorpusStore, Document, Query

INDEX_VERSION = 1

# Substitute for log(0) in SDM sums; min-max normalization absorbs it.
LOG_FLOOR = -50.0

# SDM's unordered window, in tokens (Metzler & Croft, SIGIR 2005).
SDM_WINDOW = 8


class IndexError_(ValueError):
    """A store that cannot be indexed."""


def float_sum(values: Iterable[float]) -> float:
    """The values added left to right from 0.0, each sum rounded once: the
    builtin ``sum`` of floats on Python 3.10 and 3.11 bit for bit, which from
    3.12 compensates its rounding errors instead."""
    return reduce(add, values, 0.0)


def memoized(memo: dict, key: tuple, compute: Callable[[], object]):
    """The value kept in ``memo`` under ``key``, computed on first request.
    Every cache goes through here: patched to always compute, nothing is shared."""
    if key not in memo:
        memo[key] = compute()
    return memo[key]


@dataclass
class LmParams:
    """Dirichlet smoothing pseudo-count."""

    mu: float = 1000.0

    def __post_init__(self):
        if not 0 <= self.mu < math.inf:  # NaN too
            raise ValueError(f"mu must be >= 0 and finite, got {self.mu}")


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
    """Positional postings as read-only CSR (compressed sparse row) arrays.

    Stem ``stems[s]`` (in order of first occurrence in the corpus) owns
    postings ``stem_bounds[s]:stem_bounds[s + 1]``. Posting ``p`` is
    document ``doc_order[posting_docs[p]]``, ascending by slot within a
    stem, with ascending positions
    ``posting_positions[posting_bounds[p]:posting_bounds[p + 1]]``.
    """

    stems: list[str]
    stem_bounds: np.ndarray
    posting_docs: np.ndarray
    posting_bounds: np.ndarray
    posting_positions: np.ndarray
    doc_lengths: dict[str, int]
    collection_length: int
    doc_order: list[str]
    corpus_checksum: str
    collection_term_counts: dict[str, int] = field(init=False)
    _row: dict = field(init=False, repr=False)
    _slot_of: dict = field(init=False, repr=False)
    _slot_rank: np.ndarray = field(init=False, repr=False)  # doc rank of each slot
    # ("idf", stem), ("lm_logs", stem, mu), ("pair", ordered, a, b), ("doc_table",)
    _memo: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        for a in (self.stem_bounds, self.posting_docs, self.posting_bounds, self.posting_positions):
            a.flags.writeable = False
        counts = np.diff(self.posting_bounds[self.stem_bounds]).tolist()
        self.collection_term_counts = dict(zip(self.stems, counts))
        self._row = {s: r for r, s in enumerate(self.stems)}
        self._slot_of = {d: s for s, d in enumerate(self.doc_order)}
        rank_of = {d: r for r, d in enumerate(sorted(self.doc_lengths))}  # as doc_table
        self._slot_rank = np.fromiter(map(rank_of.__getitem__, self.doc_order), np.int64)

    def collection_prob(self, stem: str) -> float:
        count = self.collection_term_counts.get(stem, 0)
        if count == 0 or self.collection_length == 0:
            return 0.0
        return count / self.collection_length

    def doc_count(self) -> int:
        return len(self.doc_order)

    def _span(self, stem: str) -> tuple[int, int]:
        """The stem's range of posting numbers, empty when no document holds it."""
        row = self._row.get(stem)
        if row is None:
            return 0, 0
        return int(self.stem_bounds[row]), int(self.stem_bounds[row + 1])

    def document_frequency(self, stem: str) -> int:
        lo, hi = self._span(stem)
        return hi - lo

    def idfs(self, stems: Iterable[str]) -> list[float | None]:
        """ln(N / df) of each stem, cached per stem; None for a stem no document holds."""
        def idf(stem: str) -> float | None:
            df = self.document_frequency(stem)
            return math.log(self.doc_count() / df) if df else None

        return [memoized(self._memo, ("idf", s), lambda s=s: idf(s)) for s in stems]

    def positions(self, stem: str, doc_id: str) -> np.ndarray:
        """The stem's ascending positions in the document, as a read-only view."""
        lo, hi = self._span(stem)
        slot = self._slot_of.get(doc_id, -1)
        p = lo + int(np.searchsorted(self.posting_docs[lo:hi], slot))
        if p < hi and self.posting_docs[p] == slot:
            return self.posting_positions[self.posting_bounds[p] : self.posting_bounds[p + 1]]
        return self.posting_positions[:0]

    def doc_table(self) -> tuple[list[str], dict[str, int], np.ndarray, np.ndarray]:
        """Doc ids in string order, each id's rank in it, the distinct document
        lengths (ascending), and each rank's slot among them."""
        def compute():
            ids = sorted(self.doc_lengths)
            lengths = np.array([self.doc_lengths[d] for d in ids], dtype=np.int64)
            distinct, slot = np.unique(lengths, return_inverse=True)
            return ids, {d: r for r, d in enumerate(ids)}, distinct, slot

        return memoized(self._memo, ("doc_table",), compute)

    def stem_arrays(self, stem: str) -> tuple[np.ndarray, np.ndarray]:
        """Doc ranks (see :meth:`doc_table`) and term frequencies of a stem's postings."""
        lo, hi = self._span(stem)
        return self._slot_rank[self.posting_docs[lo:hi]], np.diff(self.posting_bounds[lo : hi + 1])

    def lm_logs(self, stem: str, mu: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """ln theta of a stem under Dirichlet smoothing with ``mu``, cached per (stem, mu).

        Returns the doc ranks of the stem's postings (as :meth:`stem_arrays`),
        ln((tf + mu p_c) / (len + mu)) at each of them, and ln(mu p_c /
        (len + mu)), for a document lacking the stem, at each distinct
        length of :meth:`doc_table` (-inf where theta is 0). The logs come
        from :mod:`math`, so sums of them match :func:`lm_similarities` bit
        for bit. The table costs df + (distinct lengths) floats.
        """
        def compute():
            _, _, distinct, slot = self.doc_table()
            ranks, tf = self.stem_arrays(stem)
            smooth = mu * self.collection_prob(stem)
            denom = distinct + mu
            # theta > 0 at a posting (tf >= 1). A zero-length document holds
            # no stem, and at mu = 0 its denominator is 0: theta is 0 there.
            posting = (tf + smooth) / denom[slot[ranks]]
            posting = np.fromiter(map(math.log, posting.tolist()), float, len(ranks))
            background = np.divide(smooth, denom, out=np.zeros(len(denom)), where=denom > 0)
            background = exact_log(background)
            posting.flags.writeable = background.flags.writeable = False
            return ranks, posting, background

        return memoized(self._memo, ("lm_logs", stem, mu), compute)

    def pair_count(self, a: str, b: str, ordered: bool) -> int:
        """Collection count of a immediately followed by b (``ordered``), or of
        a and b within an SDM window; cached per query pair."""
        key = ("pair", ordered, a, b)
        return memoized(self._memo, key, lambda: self._scan_pairs(a, b, ordered))

    def _scan_pairs(self, a: str, b: str, ordered: bool) -> int:
        """Counts over each stem's positions in the documents holding both,
        keyed slot * stride + position: the keys ascend, and keys in different
        documents lie more than SDM_WINDOW apart, so the counts add up per
        document."""
        stride = max(self.doc_lengths.values(), default=0) + SDM_WINDOW

        def keys(stem: str, other: str) -> np.ndarray:
            (lo, hi), (other_lo, other_hi) = self._span(stem), self._span(other)
            docs, tf = self.posting_docs[lo:hi], np.diff(self.posting_bounds[lo : hi + 1])
            keep = np.repeat(np.isin(docs, self.posting_docs[other_lo:other_hi]), tf)
            at = self.posting_positions[self.posting_bounds[lo] : self.posting_bounds[hi]]
            return (np.repeat(docs.astype(np.int64) * stride, tf) + at)[keep]

        keys_a, keys_b = keys(a, b), keys(b, a)
        if ordered:
            return count_ordered_pairs(keys_a, keys_b)
        return count_window_pairs(keys_a, keys_b, a == b)

    # -- persistence --

    def save(self, path: str | Path) -> None:
        """Write the bytes of ``json.dumps(payload, sort_keys=True)``, postings
        as stem -> [[doc_id, positions], ...]. No command calls it: every
        reader rebuilds the index from the store. It stays only because the
        traced benchmark (benchmarks/spans.py) wraps this name."""
        payload = {
            "version": INDEX_VERSION,
            "corpus_checksum": self.corpus_checksum,
            "collection_length": self.collection_length,
            "doc_order": self.doc_order,
            "doc_lengths": self.doc_lengths,
            "collection_term_counts": self.collection_term_counts,
            "postings": {},
        }
        head, key, tail = json.dumps(payload, sort_keys=True).rpartition('"postings": {')
        with Path(path).open("w", encoding="utf-8") as f:
            f.write(head + key)
            f.writelines(self._postings_json())
            f.write(tail)

    def _postings_json(self, block: int = 1 << 16) -> Iterator[str]:
        """The postings object's members, stems sorted, as json.dumps writes
        them, in chunks of about ``block`` positions."""
        order = sorted(range(len(self.stems)), key=self.stems.__getitem__)
        dumped = [json.dumps(d) for d in self.doc_order]
        opening = np.array([f"]], [{d}, [" for d in dumped], object)
        longest = max(self.doc_lengths.values(), default=0)
        numerals = np.array(list(map(str, range(longest))), object)
        # A chunk starts at each stem whose positions cross a multiple of block.
        sizes = np.diff(self.posting_bounds[self.stem_bounds])[order]
        cuts = np.flatnonzero(np.diff(np.cumsum(sizes) // block, prepend=-1)).tolist()
        cuts.append(len(order))
        for start, end in zip(cuts, cuts[1:]):
            stems = order[start:end]
            postings, stem_bounds = _regroup(self.stem_bounds, np.array(stems, dtype=np.int64))
            tokens, posting_bounds = _regroup(self.posting_bounds, postings)
            docs = self.posting_docs[postings]
            # Each position follows its prefix: ", " within a posting, the
            # close of the previous posting and its own opening at its first
            # position, and the stem's key as well at the stem's first.
            prefix = np.empty(len(tokens), dtype=object)
            prefix[:] = ", "  # one shared str; np.full would copy it per element
            prefix[posting_bounds[:-1]] = opening[docs]
            prefix[posting_bounds[stem_bounds[:-1]]] = [
                f"{']]], ' if start + i else ''}{json.dumps(self.stems[s])}: [[{dumped[d]}, ["
                for i, (s, d) in enumerate(zip(stems, docs[stem_bounds[:-1]].tolist()))
            ]
            pieces = np.empty(2 * len(tokens), dtype=object)
            pieces[0::2], pieces[1::2] = prefix, numerals[self.posting_positions[tokens]]
            yield "".join(pieces.tolist())
        if order:
            yield "]]]"

    @classmethod
    def load(cls, store_dir: str | Path) -> "PositionalIndex":
        """The index of a saved store, rebuilt from its documents. No command
        calls it, and no index file is read; it stays only because the
        traced benchmark (benchmarks/spans.py) wraps this name."""
        return build_index(CorpusStore.load(store_dir))


def _bounds(sizes: np.ndarray) -> np.ndarray:
    """Bounds [0, s0, s0 + s1, ...] of consecutive groups of these sizes."""
    return np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))


def _regroup(bounds: np.ndarray, groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The element numbers of ``groups`` (groups over ``bounds``), group after
    group in that order, and the bounds of those groups in the result."""
    sizes = np.diff(bounds)[groups]
    new_bounds = _bounds(sizes)
    elements = np.arange(new_bounds[-1]) + np.repeat(bounds[groups] - new_bounds[:-1], sizes)
    return elements, new_bounds


def build_index(store: CorpusStore) -> PositionalIndex:
    """Index every document's stem positions; validates store non-empty.

    One stable argsort of the store's concatenated term-id columns groups
    tokens by term, then by document and position; stems are then
    regrouped in order of first occurrence in the corpus.
    """
    if len(store) == 0:
        raise IndexError_("cannot index an empty corpus store")
    documents = store.documents
    vocabulary = documents[0].vocabulary
    if any(doc.vocabulary is not vocabulary for doc in documents):
        raise IndexError_("cannot index documents over different vocabularies")
    lengths = np.fromiter((doc.length for doc in documents), np.int64, len(documents))
    order = np.argsort(column := np.concatenate([d.term_ids for d in documents]), kind="stable")
    term = column[order]
    slot = np.repeat(np.arange(len(documents), dtype=np.int32), lengths)[order]
    starts = np.flatnonzero((np.diff(term, prepend=-1) != 0) | (np.diff(slot, prepend=-1) != 0))
    stem_starts = np.flatnonzero(np.diff(term[starts], prepend=-1))
    # A group's first token is its earliest, and no two groups share one.
    by_first = np.argsort(order[starts[stem_starts]])
    postings, stem_bounds = _regroup(_bounds(np.diff(stem_starts, append=len(starts))), by_first)
    tokens, posting_bounds = _regroup(_bounds(np.diff(starts, append=len(order))), postings)
    return PositionalIndex(
        stems=[vocabulary[t] for t in term[starts[stem_starts[by_first]]].tolist()],
        stem_bounds=stem_bounds,
        posting_docs=slot[starts][postings],
        posting_bounds=posting_bounds,
        posting_positions=(order - _bounds(lengths)[slot])[tokens].astype(np.int32),
        doc_lengths=dict(zip(store.doc_ids(), lengths.tolist())),
        collection_length=int(lengths.sum()),
        doc_order=store.doc_ids(),
        corpus_checksum=store.checksum(),
    )


def lm_similarities(
    terms: Sequence[str],
    counts: Mapping[str, float | np.ndarray],
    lengths: np.ndarray,
    index: PositionalIndex,
    params: LmParams,
) -> np.ndarray:
    """exp(-cross-entropy) similarity between a term sequence and each of
    several text units (documents, passages, or positional pseudo-documents
    with fractional counts): ``counts[t]`` holds stem t's count in each unit
    (absent: 0), ``lengths`` each unit's length. Terms absent from the
    collection are dropped; if all are, or a kept term has zero smoothed
    probability in a unit (mu = 0 and no occurrence), the unit scores 0.
    Logs and exps come from :mod:`math`, and the ``inv_n * log(theta)``
    summands are added in query order, repeats included."""
    kept = [t for t in terms if index.collection_term_counts.get(t)]
    if not kept:
        return np.zeros(len(lengths))
    row_of = {t: row for row, t in enumerate(dict.fromkeys(kept))}
    tf = np.zeros((len(row_of), len(lengths)))
    for t, row in row_of.items():
        tf[row] = counts.get(t, 0.0)
    smooth = np.array([params.mu * index.collection_prob(t) for t in row_of])
    denom = lengths + params.mu
    # theta is 0 where the denominator is, and ln 0 = -inf scores exp 0.
    theta = np.divide(tf + smooth[:, None], denom, out=np.zeros(tf.shape), where=denom > 0)
    logs = (1.0 / len(kept)) * exact_log(theta)
    log_sum = np.zeros(len(lengths))
    for t in kept:
        log_sum += logs[row_of[t]]
    return np.fromiter(map(math.exp, log_sum.tolist()), float, len(lengths))


def exact_log(x: np.ndarray) -> np.ndarray:
    """math.log of each entry (-inf where <= 0); numpy's SIMD log can differ in the last bit."""
    logs = [math.log(v) if v > 0.0 else -math.inf for v in x.ravel().tolist()]
    return np.array(logs, dtype=float).reshape(x.shape)


# How far below the k-th largest log sum lm_top_ranks still takes exp: far
# wider than exp's rounding, so no candidate below it scores with the top k.
_TOP_MARGIN = 1e-6


def lm_top_ranks(
    terms: Sequence[str], index: PositionalIndex, params: LmParams, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Doc ranks (see :meth:`PositionalIndex.doc_table`) and scores of the
    top k documents holding a kept term, best first.

    Scores are bit-identical to :func:`lm_similarities` (run files record
    them with repr): the logs come from :meth:`PositionalIndex.lm_logs`,
    the ``inv_n * log(theta)`` summands are added in query order, repeats
    included, and exp comes from :mod:`math`. A zero theta (mu = 0) scores
    0. Zero scores are excluded and ties break by ascending doc id. The top
    k is picked on the log sums (``np.partition``): exp is taken only of
    those within a margin of the k-th largest, unless exp maps the k-th
    largest and the margin below it to one value (subnormal and zero
    scores), when all are kept, so ties after exp keep their id order.
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
    if k < len(cand):
        kth = float(np.partition(log_sum, len(cand) - k)[len(cand) - k])
        # exp is monotone: a log sum more than the margin below the k-th
        # largest scores below k candidates, once exp tells the two apart.
        if math.exp(kth - _TOP_MARGIN) != math.exp(kth):
            near = log_sum >= kth - _TOP_MARGIN
            cand, log_sum = cand[near], log_sum[near]
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
    """Exact adjacencies: occurrences of a immediately followed by b (positions ascend)."""
    after = np.asarray(positions_a, dtype=np.int64) + 1
    b = np.asarray(positions_b, dtype=np.int64)
    return int(np.count_nonzero(np.searchsorted(b, after, "right") - np.searchsorted(b, after)))


def count_window_pairs(
    positions_a: Sequence[int],
    positions_b: Sequence[int],
    same_term: bool,
) -> int:
    """Unordered co-occurrences of a and b within a window of SDM_WINDOW tokens.

    A pair of occurrences counts when both fit inside a span of SDM_WINDOW
    consecutive positions (|i - j| <= SDM_WINDOW - 1). For a == b, each
    unordered occurrence pair counts once, and ``positions_b`` is not read.
    Positions ascend.
    """
    span = SDM_WINDOW - 1
    a = np.asarray(positions_a, dtype=np.int64)
    if same_term:
        # Occurrences after each one, up to span positions on.
        return int((np.searchsorted(a, a + span, "right") - np.arange(1, len(a) + 1)).sum())
    b = np.asarray(positions_b, dtype=np.int64)
    return int((np.searchsorted(b, a + span, "right") - np.searchsorted(b, a - span)).sum())


def sdm_components(
    query: Query, doc: Document, index: PositionalIndex, params: LmParams
) -> tuple[float, float, float]:
    """Log-domain unigram, ordered-bigram and unordered-window features.

    Each summand is ln of the Dirichlet-smoothed probability of the term
    (or adjacent query-term pair) in the document, smoothed against the
    matching collection statistic; ln(0) is floored at LOG_FLOOR. A
    single-term query has zero ordered/unordered components. Positions
    and term frequencies come from the index, which must hold ``doc``.
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

    positions = {t: index.positions(t, doc.doc_id) for t in terms}
    f_t = float_sum(
        smoothed_log(len(positions[t]), index.collection_term_counts.get(t, 0)) for t in terms
    )

    f_o = 0.0
    f_u = 0.0
    for a, b in zip(terms, terms[1:]):
        ord_count = count_ordered_pairs(positions[a], positions[b])
        win_count = count_window_pairs(positions[a], positions[b], a == b)
        f_o += smoothed_log(ord_count, index.pair_count(a, b, ordered=True))
        f_u += smoothed_log(win_count, index.pair_count(a, b, ordered=False))
    return f_t, f_o, f_u
