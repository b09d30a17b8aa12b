"""Positional inverted index, Dirichlet-smoothed LM scoring, and SDM feature rows.

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


_ABSENT = object()  # a key memoized_all's memo lacks


def memoized_all(memo: dict, keys: Sequence[tuple], compute: Callable[[list], Sequence]) -> list:
    """The values kept in ``memo`` under ``keys``; those it lacks come from one
    ``compute(missing keys)`` call, which returns their values in that order,
    and each is kept through :func:`memoized`, so the bypass covers them."""
    values = [memo.get(key, _ABSENT) for key in keys]
    missing = list(dict.fromkeys(key for key, value in zip(keys, values) if value is _ABSENT))
    if missing:
        computed = zip(missing, compute(missing))
        fresh = {key: memoized(memo, key, lambda value=value: value) for key, value in computed}
        values = [fresh[key] if value is _ABSENT else value for key, value in zip(keys, values)]
    return values


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
    # Key stride of :meth:`stem_keys`: past the longest document by SDM_WINDOW.
    stride: int = field(init=False)
    _row: dict = field(init=False, repr=False)
    _slot_of: dict = field(init=False, repr=False)
    _slot_rank: np.ndarray = field(init=False, repr=False)  # doc rank of each slot
    # ("lm_logs", stem, mu), ("pair", ordered, a, b), ("doc_table",)
    _memo: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        for a in (self.stem_bounds, self.posting_docs, self.posting_bounds, self.posting_positions):
            a.flags.writeable = False
        counts = np.diff(self.posting_bounds[self.stem_bounds]).tolist()
        self.collection_term_counts = dict(zip(self.stems, counts))
        self.stride = max(self.doc_lengths.values(), default=0) + SDM_WINDOW
        self._row = {s: r for r, s in enumerate(self.stems)}
        self._slot_of = {d: s for s, d in enumerate(self.doc_order)}
        rank_by_doc = {d: r for r, d in enumerate(sorted(self.doc_lengths))}  # as doc_table
        self._slot_rank = np.fromiter(map(rank_by_doc.__getitem__, self.doc_order), np.int64)

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

    def positions(self, stem: str, doc_id: str) -> np.ndarray:
        """The stem's ascending positions in the document, as a read-only view."""
        lo, hi = self._span(stem)
        slot = self._slot_of.get(doc_id, -1)
        p = lo + int(np.searchsorted(self.posting_docs[lo:hi], slot))
        if p < hi and self.posting_docs[p] == slot:
            return self.posting_positions[self.posting_bounds[p] : self.posting_bounds[p + 1]]
        return self.posting_positions[:0]

    def stem_keys(self, stem: str, doc_ids: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """The stem's positions in the listed documents as ascending int64 keys
        row * :attr:`stride` + position (row r is ``doc_ids[r]``), and its
        term frequency in each row. Keys in different rows lie more than
        SDM_WINDOW apart, so a window search never crosses rows."""
        slots = np.fromiter((self._slot_of.get(d, -1) for d in doc_ids), np.int64, len(doc_ids))
        return self._slot_keys(stem, slots)

    def _slot_keys(self, stem: str, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`stem_keys` of the documents at ``slots``."""
        lo, hi = self._span(stem)
        at = lo + np.searchsorted(self.posting_docs[lo:hi], slots)
        held = np.flatnonzero(at < hi)
        held = held[self.posting_docs[at[held]] == slots[held]]
        tokens, bounds = _regroup(self.posting_bounds, at[held])
        tf = np.zeros(len(slots), dtype=np.int64)
        tf[held] = np.diff(bounds)
        keys = np.repeat(held * self.stride, tf[held]) + self.posting_positions[tokens]
        return keys, tf

    def doc_table(self) -> tuple[list[str], dict[str, int], np.ndarray, np.ndarray]:
        """Doc ids in string order, each id's rank in it, the distinct document
        lengths (ascending), and each rank's slot among them."""
        def compute():
            ids = sorted(self.doc_lengths)
            lengths = np.array([self.doc_lengths[d] for d in ids], dtype=np.int64)
            distinct, slot = np.unique(lengths, return_inverse=True)
            return ids, {d: r for r, d in enumerate(ids)}, distinct, slot

        return memoized(self._memo, ("doc_table",), compute)

    def lm_logs(
        self, stems: Sequence[str], mu: float
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """ln theta of each stem under Dirichlet smoothing with ``mu``, cached per (stem, mu).

        A stem's entry holds the doc ranks (see :meth:`doc_table`) of its
        postings, ln((tf + mu p_c) / (len + mu)) at each of them, and
        ln(mu p_c / (len + mu)), for a document lacking the stem, at each
        distinct length of :meth:`doc_table` (-inf where theta is 0). The
        entries missing from the cache are filled together, their logs in
        one :mod:`math` pass, so sums of them match :func:`lm_similarities`
        bit for bit. An entry costs df + (distinct lengths) floats.
        """
        def compute(keys: list) -> list:
            _, _, distinct, slot = self.doc_table()
            missing = [stem for _, stem, _ in keys]
            lo, hi = np.array([self._span(stem) for stem in missing], np.int64).reshape(-1, 2).T
            bounds = _bounds(sizes := hi - lo)
            postings = np.arange(bounds[-1]) + np.repeat(lo - bounds[:-1], sizes)
            ranks = self._slot_rank[self.posting_docs[postings]]
            tf = self.posting_bounds[postings + 1] - self.posting_bounds[postings]
            smooth = np.array([mu * self.collection_prob(stem) for stem in missing])
            denom = distinct + mu
            # theta > 0 at a posting (tf >= 1). A zero-length document holds
            # no stem, and at mu = 0 its denominator is 0: theta is 0 there.
            posting = (tf + np.repeat(smooth, sizes)) / denom[slot[ranks]]
            background = np.divide(
                smooth[:, None], denom, out=np.zeros((len(missing), len(denom))), where=denom > 0
            )
            logs = exact_log(np.concatenate((posting, background.ravel())))
            ranks.flags.writeable = logs.flags.writeable = False
            posting, background = np.split(logs, [len(posting)])
            background = background.reshape(len(missing), -1)
            return [
                (ranks[a:b], posting[a:b], background[i])
                for i, (a, b) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
            ]

        return memoized_all(self._memo, [("lm_logs", stem, mu) for stem in stems], compute)

    def pair_count(self, a: str, b: str, ordered: bool) -> int:
        """Collection count of a immediately followed by b (``ordered``), or of
        a and b within an SDM window; cached per query pair."""
        key = ("pair", ordered, a, b)
        return memoized(self._memo, key, lambda: self._scan_pairs(a, b, ordered))

    def _scan_pairs(self, a: str, b: str, ordered: bool) -> int:
        """Counts over both stems' :meth:`stem_keys` in the documents holding
        both: keys in different documents lie more than SDM_WINDOW apart, so
        the counts add up per document."""
        (lo, hi), (b_lo, b_hi) = self._span(a), self._span(b)
        both = np.intersect1d(self.posting_docs[lo:hi], self.posting_docs[b_lo:b_hi], True)
        (keys_a, _), (keys_b, _) = self._slot_keys(a, both), self._slot_keys(b, both)
        if ordered:
            return int(ordered_hits(keys_a, keys_b).sum())
        return int(window_hits(keys_a, keys_b, a == b).sum())

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


def stable_order(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, kind="stable")`` for non-negative integers.

    Each value is shifted above the bits of its position, with the position
    in the low bits, and the int64 keys are sorted in place. Distinct keys
    have one order whatever the algorithm, so numpy's default sort (SIMD
    where the CPU has it) serves and needs no merge buffer. Raises
    ValueError for a negative value or for keys past 63 bits (for term ids,
    more than 2^32 tokens).
    """
    shift = max(len(values) - 1, 0).bit_length()
    if len(values) and int(values.min()) < 0:
        raise ValueError("stable_order needs non-negative values")
    top = int(values.max(initial=0))
    if top.bit_length() + shift > 63:
        raise ValueError(f"{len(values)} values up to {top} overflow 63-bit keys")
    keys = values.astype(np.int64) << shift
    keys |= np.arange(len(values), dtype=np.int64)
    keys.sort()
    keys &= (1 << shift) - 1
    return keys


def first_occurrences(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(values, return_index=True, return_counts=True)`` for
    non-negative integers, grouped by :func:`stable_order`."""
    order = stable_order(values)
    ordered = values[order]
    starts = np.flatnonzero(np.diff(ordered, prepend=-1))
    return ordered[starts], order[starts], np.diff(starts, append=len(values))


def best_first_order(
    group: np.ndarray, values: np.ndarray, ids: np.ndarray, n_ids: int
) -> np.ndarray:
    """``np.lexsort((ids, -values, group))`` for non-negative integer groups
    and ids below ``n_ids`` that are distinct within a group: rows by group,
    then by descending value, then by id. One argsort of int64 keys (the
    group, then the value's place among the distinct values, then the id);
    they are distinct, so any sort algorithm gives this order. Raises
    ValueError for keys past 63 bits."""
    distinct, place = np.unique(-values, return_inverse=True)
    if (int(group.max(initial=0)) + 1) * len(distinct) * n_ids > 1 << 63:
        raise ValueError("best_first_order keys overflow 63 bits")
    return np.argsort((group * len(distinct) + place) * n_ids + ids)


def _bounds(sizes: np.ndarray) -> np.ndarray:
    """Bounds [0, s0, s0 + s1, ...] of consecutive groups of these sizes."""
    return np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))


def _regroup(bounds: np.ndarray, groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The element numbers of ``groups`` (groups over ``bounds``), group after
    group in that order, and the bounds of those groups in the result."""
    sizes = bounds[groups + 1] - bounds[groups]
    new_bounds = _bounds(sizes)
    elements = np.arange(new_bounds[-1]) + np.repeat(bounds[groups] - new_bounds[:-1], sizes)
    return elements, new_bounds


def build_index(store: CorpusStore) -> PositionalIndex:
    """Index every document's stem positions; validates store non-empty.

    One :func:`stable_order` of the store's concatenated term-id columns
    groups tokens by term, then by document and position; stems are then
    regrouped in order of first occurrence in the corpus.
    """
    if len(store) == 0:
        raise IndexError_("cannot index an empty corpus store")
    documents = store.documents
    vocabulary = documents[0].vocabulary
    if any(doc.vocabulary is not vocabulary for doc in documents):
        raise IndexError_("cannot index documents over different vocabularies")
    lengths = np.fromiter((doc.length for doc in documents), np.int64, len(documents))
    order = stable_order(column := np.concatenate([d.term_ids for d in documents]))
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
    logs = np.full(x.shape, -math.inf)
    held = x > 0.0
    logs[held] = np.fromiter(map(math.log, x[held].tolist()), float, np.count_nonzero(held))
    return logs


# How far below the k-th largest log sum lm_top_ranks still takes exp: far
# wider than exp's rounding, so no candidate below it scores with the top k.
_TOP_MARGIN = 1e-6

# Term lists per lm_top_ranks table: each block's table has a row per
# distinct kept stem of at most this many lists.
TOP_RANKS_BLOCK = 16


def lm_top_ranks(
    term_lists: Sequence[Sequence[str]], index: PositionalIndex, params: LmParams, k: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each term list, the doc ranks (see :meth:`PositionalIndex.doc_table`)
    and scores of the top k documents holding one of its kept terms, best first.

    Scores are bit-identical to :func:`lm_similarities` (run files record
    them with repr): the logs come from :meth:`PositionalIndex.lm_logs`,
    each list's ``inv_n * log(theta)`` summands are added in its order,
    repeats included, and exp comes from :mod:`math`. A zero theta (mu = 0)
    scores 0. Zero scores are excluded and ties break by ascending doc id.
    Each list's top k is picked on its log sums (``np.partition``): exp is
    taken only of those within a margin of the k-th largest, unless exp maps
    the k-th largest and the margin below it to one value (subnormal and
    zero scores), when all are kept, so ties after exp keep their id order.

    Lists are scored :data:`TOP_RANKS_BLOCK` at a time, over the union of
    their candidate documents.
    """
    return [
        top
        for start in range(0, len(term_lists), TOP_RANKS_BLOCK)
        for top in _top_ranks_block(term_lists[start : start + TOP_RANKS_BLOCK], index, params, k)
    ]


def _top_ranks_block(
    term_lists: Sequence[Sequence[str]], index: PositionalIndex, params: LmParams, k: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """:func:`lm_top_ranks` of one block of lists."""
    counts = index.collection_term_counts
    kept = [[t for t in terms if counts.get(t)] for terms in term_lists]
    scored = [i for i, terms in enumerate(kept) if terms]
    tops = [(np.empty(0, dtype=np.intp), np.empty(0))] * len(kept)
    if not scored:
        return tops
    slot = index.doc_table()[3]
    row_of = {t: row for row, t in enumerate(dict.fromkeys(t for i in scored for t in kept[i]))}
    ranks, postings, backgrounds = zip(*index.lm_logs(list(row_of), params.mu))
    sizes = np.fromiter(map(len, ranks), np.int64, len(ranks))
    posting_ranks = np.concatenate(ranks)
    is_cand = np.zeros(len(slot), dtype=bool)
    is_cand[posting_ranks] = True
    cand = np.flatnonzero(is_cand)
    # Each posting's cell in a row-major (stem, candidate) table.
    cell = np.repeat(np.arange(0, len(ranks) * len(cand), len(cand)), sizes)
    cell += (np.cumsum(is_cand) - 1)[posting_ranks]
    # Row per distinct stem, column per candidate: the log of a document
    # lacking the stem, then the logs at its postings written over it. The
    # last row is 0.0, which pads the shorter lists: adding it changes no sum.
    logs = np.zeros((len(ranks) + 1, len(cand)))
    background = np.concatenate(backgrounds).reshape(len(ranks), -1)
    logs[:-1] = background[:, slot[cand]]
    logs.reshape(-1)[cell] = np.concatenate(postings)
    width = max(len(kept[i]) for i in scored)
    term_rows = np.full((len(scored), width), len(ranks))
    for line, i in enumerate(scored):
        term_rows[line, : len(kept[i])] = [row_of[t] for t in kept[i]]
    inv_n = np.array([[1.0 / len(kept[i])] for i in scored])
    log_sum = np.zeros((len(scored), len(cand)))
    for column in term_rows.T:
        summand = logs[column]
        summand *= inv_n
        log_sum += summand
    if len(scored) > 1:
        # A list's candidates are the columns of its own stems' postings;
        # the others read -inf, which no pick keeps and exp maps to 0.
        holds = np.zeros(logs.shape, dtype=bool)
        holds.reshape(-1)[cell] = True
        member = holds[term_rows.T].any(axis=0)
        log_sum[~member] = -math.inf
        n_cand = member.sum(axis=1)
    else:
        n_cand = np.array([len(cand)])
    floor = np.full(len(scored), -math.inf)
    partitioned = n_cand > k
    if partitioned.any():
        # Past a list's candidates its row holds -inf: its k-th largest is
        # that of its candidates.
        at = len(cand) - k
        kth = np.partition(log_sum[partitioned], at, axis=1)[:, at].tolist()
        for line, value in zip(np.flatnonzero(partitioned).tolist(), kth):
            # exp is monotone: a log sum more than the margin below the k-th
            # largest scores below k candidates, once exp tells the two apart.
            if math.exp(value - _TOP_MARGIN) != math.exp(value):
                floor[line] = value - _TOP_MARGIN
    lines, columns = np.nonzero(log_sum >= floor[:, None])
    values = log_sum[lines, columns]
    scores = np.fromiter(map(math.exp, values.tolist()), float, len(values))
    positive = scores > 0.0
    lines, columns, scores = lines[positive], columns[positive], scores[positive]
    # Within a list, tied scores keep ascending ranks, which is doc id order.
    order = best_first_order(lines, scores, columns, len(cand))
    lines, columns, scores = lines[order], columns[order], scores[order]
    first = np.searchsorted(lines, np.arange(len(scored) + 1))
    for line, i in enumerate(scored):
        lo = int(first[line])
        hi = min(int(first[line + 1]), lo + k)
        tops[i] = cand[columns[lo:hi]], scores[lo:hi]
    return tops


def rank_documents_lm(
    terms: Sequence[str], index: PositionalIndex, params: LmParams, k: int
) -> list[tuple[str, float]]:
    """Top-k ``(doc_id, score)`` of :func:`lm_top_ranks`."""
    ids = index.doc_table()[0]
    ranks, scores = lm_top_ranks([terms], index, params, k)[0]
    return [(ids[r], s) for r, s in zip(ranks.tolist(), scores.tolist())]


def retrieve_lm(query: Query, index: PositionalIndex, params: LmParams, k: int):
    """The top-k documents holding a query term, as a RankedList of :func:`rank_documents_lm`."""
    from .rank import RankedList

    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    entries = rank_documents_lm(query.stems(), index, params, k)
    return RankedList.from_scores(query.query_id, entries)


def ordered_hits(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """At each occurrence of a, 1 when b immediately follows it, else 0.
    ``a`` and ``b`` are ascending int64 positions, or the keys of
    :meth:`PositionalIndex.stem_keys`."""
    after = a + 1
    return np.searchsorted(b, after, "right") - np.searchsorted(b, after)


def window_hits(a: np.ndarray, b: np.ndarray, same_term: bool) -> np.ndarray:
    """At each occurrence of a, the occurrences of b that fit with it inside a
    span of SDM_WINDOW consecutive positions (|i - j| <= SDM_WINDOW - 1). For
    a == b, those after it, so that each unordered pair counts once, and
    ``b`` is not read. Inputs as :func:`ordered_hits`."""
    span = SDM_WINDOW - 1
    if same_term:
        return np.searchsorted(a, a + span, "right") - np.arange(1, len(a) + 1)
    return np.searchsorted(b, a + span, "right") - np.searchsorted(b, a - span)


def sdm_matrix(
    query: Query, docs: Sequence[Document], index: PositionalIndex, params: LmParams
) -> np.ndarray:
    """Log-domain unigram, ordered-bigram and unordered-window features of
    each document, one row each.

    Each summand is ln of the Dirichlet-smoothed probability of the term
    (or adjacent query-term pair) in the document, smoothed against the
    matching collection statistic; ln(0) is floored at LOG_FLOOR. A
    single-term query has zero ordered/unordered components. Counts come
    from one :meth:`PositionalIndex.stem_keys` pass per distinct query term
    over the index, which must hold the documents; logs come from
    :func:`exact_log`, and the summands are added in query order from 0.0.
    """
    terms = query.stems()
    doc_ids = [doc.doc_id for doc in docs]
    denom = np.array([doc.length for doc in docs], dtype=np.int64) + params.mu
    keys, tf = {}, {}
    for t in dict.fromkeys(terms):
        keys[t], tf[t] = index.stem_keys(t, doc_ids)

    def smoothed_logs(counts: np.ndarray, collection_count: int) -> np.ndarray:
        p_c = collection_count / index.collection_length if index.collection_length else 0.0
        theta = np.divide(
            counts + params.mu * p_c, denom, out=np.zeros(len(docs)), where=denom > 0
        )
        return np.maximum(exact_log(theta), LOG_FLOOR)

    rows = np.zeros((3, len(docs)))
    f_t, f_o, f_u = rows
    for t in terms:
        f_t += smoothed_logs(tf[t], index.collection_term_counts.get(t, 0))
    for a, b in zip(terms, terms[1:]):
        row = keys[a] // index.stride
        ordered = np.bincount(row, ordered_hits(keys[a], keys[b]), len(docs))
        window = np.bincount(row, window_hits(keys[a], keys[b], a == b), len(docs))
        f_o += smoothed_logs(ordered, index.pair_count(a, b, ordered=True))
        f_u += smoothed_logs(window, index.pair_count(a, b, ordered=False))
    return rows.T
