"""Feature extraction for (query, document) and (query, passage) pairs.

Document vectors carry the three SDM log-components plus the stopword
and entropy relevance priors. Passage vectors carry 20 features mixing
query similarities (of the passage, its ambient document, and its
neighbors), the same relevance priors at passage level, lexical overlap
signals, and three semantic similarities (concept-space retrieval
overlap, embedding centroids, entity-set Jaccard).

All learned-model inputs are min-max normalized per query before any
model is trained or applied; constant features map to 0.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import CorpusStore, Document, Query, StopwordList
from .index import (
    LmParams, PositionalIndex, exact_log, lm_similarities, lm_top_ranks, sdm_components,
)
from .passage import Passage, neighbors


class SchemaError(ValueError):
    """Feature schema mismatch or name collision."""


@dataclass(frozen=True)
class FeatureSchema:
    """Named, ordered feature list."""

    name: str
    features: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        if len(set(self.features)) != len(self.features):
            raise SchemaError(f"schema {self.name!r} has duplicate feature names")

    def __len__(self) -> int:
        return len(self.features)

    def index_of(self, feature: str) -> int:
        try:
            return self.features.index(feature)
        except ValueError:
            raise SchemaError(f"schema {self.name!r} has no feature {feature!r}") from None

    def without(self, exclusions: Iterable[str]) -> "FeatureSchema":
        exclusions = set(exclusions)
        unknown = exclusions - set(self.features)
        if unknown:
            raise SchemaError(
                f"cannot exclude unknown features {sorted(unknown)}; "
                f"schema {self.name!r} has {list(self.features)}"
            )
        kept = tuple(f for f in self.features if f not in exclusions)
        return FeatureSchema(f"{self.name}-abl", kept)


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """One query's feature rows under one schema.

    ``values`` is a read-only C-contiguous float64 array with one row per
    item id, checked for finite values once, at construction, as the item
    ids are for an id listed twice; ``len()`` is the row count. Extraction,
    the SVMlight files, training and scoring all carry features in this
    form.
    """

    schema: FeatureSchema
    query_id: str
    item_ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        item_ids = tuple(self.item_ids)
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.size == 0 and values.ndim != 2:
            values = values.reshape(len(item_ids), len(self.schema))
        if values.shape != (len(item_ids), len(self.schema)):
            raise SchemaError(
                f"matrix of shape {values.shape} for {len(item_ids)} items and schema "
                f"{self.schema.name!r} of length {len(self.schema)}"
            )
        if not np.isfinite(values).all():
            bad = item_ids[int(np.argmin(np.isfinite(values).all(axis=1)))]
            raise SchemaError(f"non-finite feature value for item {bad!r}")
        if len(set(item_ids)) != len(item_ids):
            counts = Counter(item_ids)
            twice = next(i for i in item_ids if counts[i] > 1)
            raise SchemaError(f"query {self.query_id!r} lists an item id twice: {twice!r}")
        values = values.view()
        values.flags.writeable = False
        object.__setattr__(self, "item_ids", item_ids)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.item_ids)

    @cached_property
    def _row_of(self) -> dict[str, int]:
        return {item_id: r for r, item_id in enumerate(self.item_ids)}

    def rows(self, item_ids: Iterable[str]) -> list[int]:
        """Row indices of ``item_ids``; the id -> row map is built once."""
        row_of = self._row_of
        return [row_of[i] for i in item_ids]

    def take(self, item_ids: Sequence[str]) -> "FeatureMatrix":
        """The rows of ``item_ids``, in that order."""
        values = np.take(self.values, self.rows(item_ids), axis=0)
        return FeatureMatrix(self.schema, self.query_id, item_ids, values)

    def columns(self, schema: FeatureSchema) -> "FeatureMatrix":
        """The columns named by ``schema``, in its order."""
        keep = [self.schema.index_of(f) for f in schema.features]
        return FeatureMatrix(schema, self.query_id, self.item_ids, self.values[:, keep])


DOC_FEATURES = ("SdmUnigrams", "SdmOrderedBigrams", "SdmUnorderedBigrams", "SW1", "SW2", "Ent")
PSG_FEATURES = (
    "PsgQuerySim",
    "DocQuerySim",
    "MaxPDSim",
    "AvgPDSim",
    "StdPDSim",
    "LengthRatio",
    "QuerySimPre",
    "QuerySimFollow",
    "Ent",
    "SW1",
    "SW2",
    "QueryLength",
    "ExactMatch",
    "TermOverlap",
    "SynonymsOverlap",
    "PsgLength",
    "PsgLocation",
    "ESA",
    "W2V",
    "Entity",
)

DOC_SCHEMA = FeatureSchema("doc6", DOC_FEATURES)
PSG_SCHEMA = FeatureSchema("psg20", PSG_FEATURES)


def concat_schemas(
    a: FeatureSchema,
    b: FeatureSchema,
    name: str | None = None,
    a_prefix: str = "",
    b_prefix: str = "",
    exclusions: Iterable[str] = (),
) -> FeatureSchema:
    """Ordered concatenation; exclusions apply to the appended schema's
    unprefixed names."""
    exclusions = set(exclusions)
    unknown = exclusions - set(b.features)
    if unknown:
        raise SchemaError(f"exclusions {sorted(unknown)} not in schema {b.name!r}")
    left = tuple(a_prefix + f for f in a.features)
    right = tuple(b_prefix + f for f in b.features if f not in exclusions)
    collisions = set(left) & set(right)
    if collisions:
        raise SchemaError(f"feature name collision on concat: {sorted(collisions)}")
    return FeatureSchema(name or f"{a.name}+{b.name}", left + right)


def minmax_normalize(matrix: FeatureMatrix) -> FeatureMatrix:
    """Per-feature (v - min) / (max - min) over one query's rows; constant
    features map to 0. Idempotent."""
    if not len(matrix):
        return matrix
    mat = matrix.values
    lo = mat.min(axis=0)
    hi = mat.max(axis=0)
    span = hi - lo
    safe = np.where(span > 0, span, 1.0)
    normed = np.where(span > 0, (mat - lo) / safe, 0.0)
    return FeatureMatrix(matrix.schema, matrix.query_id, matrix.item_ids, normed)


# -- token columns and the relevance priors shared by documents and passages --


class _TokenColumns:
    """Units of consecutive document tokens (passages or whole documents) as
    concatenated term-id and stopword-id columns, each token's unit, and a count table."""

    def __init__(self, docs: Sequence[Document], ranges: Sequence[tuple[int, int]]):
        self.docs = docs
        self.lengths = np.fromiter((end - start for start, end in ranges), np.int64, len(ranges))
        self.owner = np.repeat(np.arange(len(ranges)), self.lengths)
        spans = [(d, slice(*r)) for d, r in zip(docs, ranges)]
        none = [np.zeros(0, np.int64)]
        self.term_ids = np.concatenate([d.term_ids[r] for d, r in spans] or none)
        self.stopword_ids = np.concatenate([d.stopword_ids[r] for d, r in spans] or none)

    @cached_property
    def counts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Unit, term id and count of each distinct (unit, term) pair, unit
        by unit, within one in order of first occurrence (a Counter's
        order); and each unit's bounds among them."""
        width = int(self.term_ids.max(initial=0)) + 1
        keys, first, tf = np.unique(
            self.owner * width + self.term_ids, return_index=True, return_counts=True
        )
        order = np.argsort(first)
        unit, term = np.divmod(keys[order], width)
        return unit, term, tf[order], np.searchsorted(unit, np.arange(len(self.lengths) + 1))


def stopword_priors(
    stopword_ids: np.ndarray, lengths: np.ndarray, n_stopwords: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per unit of consecutive tokens of the given ``lengths``: SW1, the
    fraction of its tokens that are stopwords (id >= 0; 0 when empty); SW2,
    the fraction of the ``n_stopwords`` list it holds; and its non-stopword
    count."""
    owner = np.repeat(np.arange(len(lengths)), lengths)
    is_stop = stopword_ids >= 0
    stops = np.bincount(owner[is_stop], minlength=len(lengths))
    held = np.unique(owner[is_stop] * n_stopwords + stopword_ids[is_stop])
    coverage = np.bincount(held // n_stopwords, minlength=len(lengths)) / n_stopwords
    fraction = np.divide(stops, lengths, out=np.zeros(len(lengths)), where=lengths > 0)
    return fraction, coverage, (lengths - stops).astype(float)


def term_entropies(tf: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Natural-log entropy of each unit's term distribution; 0 when empty.

    Unit u's term counts are ``tf[bounds[u]:bounds[u + 1]]``, in order of
    first occurrence. Bit for bit as ``-sum(c/n * math.log(c/n))`` over a
    Counter's counts: the logs come from :func:`exact_log`, one per
    distinct c/n, and each unit's summands are added left to right, the
    j-th summands of all units one step, so no unit is padded.
    """
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


def query_similarities(
    terms: Sequence[str],
    index: PositionalIndex,
    doc_ids: Sequence[str],
    passages_by_doc: Mapping[str, Sequence[Passage]],
    params: LmParams,
) -> tuple[dict[str, float], dict[str, float]]:
    """Query likelihoods of each candidate document and of each of its
    passages, keyed by id in ``doc_ids`` order: one
    :func:`lm_similarities` pass each, counts read from postings."""
    passages = [p for d in doc_ids for p in passages_by_doc[d]]
    # Positions and passage bounds as keys document * stride + token.
    stride = max((index.doc_lengths[d] for d in doc_ids), default=0) + 1
    slot = {d: np.int64(i * stride) for i, d in enumerate(doc_ids)}
    bounds = np.array([slot[p.doc_id] + i for p in passages for i in p.token_range], np.int64)
    doc_tf, psg_tf = {}, {}
    for t in set(terms):
        positions = [index.positions(t, d) for d in doc_ids]
        doc_tf[t] = [len(at) for at in positions]
        keys = np.concatenate([slot[d] + at for d, at in zip(doc_ids, positions)] or [bounds[:0]])
        at = np.searchsorted(keys, bounds)
        psg_tf[t] = at[1::2] - at[::2]
    lengths = np.array([index.doc_lengths[d] for d in doc_ids], dtype=np.int64)
    doc_sims = lm_similarities(terms, doc_tf, lengths, index, params)
    psg_sims = lm_similarities(terms, psg_tf, np.array([p.length for p in passages]), index, params)
    return (
        dict(zip(doc_ids, doc_sims.tolist())),
        dict(zip((p.passage_id for p in passages), psg_sims.tolist())),
    )


def doc_priors(
    docs: Sequence[Document], stopwords: StopwordList
) -> list[tuple[float, float, float]]:
    """Each document's SW1, SW2 and Ent: the passage columns' passes over
    whole documents. They read the document alone, so a caller may keep them."""
    cols = _TokenColumns(docs, [(0, d.length) for d in docs])
    sw1, sw2, _ = stopword_priors(cols.stopword_ids, cols.lengths, len(stopwords))
    return list(zip(sw1.tolist(), sw2.tolist(), term_entropies(*cols.counts[2:]).tolist()))


def doc_features(
    query: Query,
    doc: Document,
    index: PositionalIndex,
    params: LmParams,
    stopwords: StopwordList,
    priors: tuple[float, float, float] | None = None,
) -> tuple[float, ...]:
    """The 6 document features, in :data:`DOC_SCHEMA` order: SDM components
    + the :func:`doc_priors`, which a caller that keeps them per document
    passes as ``priors``."""
    priors = priors or doc_priors([doc], stopwords)[0]
    return (*sdm_components(query, doc, index, params), *priors)


# -- semantic resources --


@dataclass
class SemanticResources:
    """Optional lookup tables consumed by the semantic passage features.

    Missing tables degrade the corresponding features: no embeddings or
    entities make W2V / Entity evaluate to 0; an absent synonym table
    reduces SynonymsOverlap to TermOverlap; the concept-space index
    defaults to the experiment's own corpus index.
    """

    embeddings: dict[str, np.ndarray] | None = None
    synonyms: dict[str, frozenset[str]] | None = None
    entities: dict[str, frozenset[str]] | None = None
    esa_index: PositionalIndex | None = None

    def degradations(self) -> list[str]:
        missing = []
        if self.embeddings is None:
            missing.append("embeddings (W2V = 0)")
        if self.synonyms is None:
            missing.append("synonyms (SynonymsOverlap = TermOverlap)")
        if self.entities is None:
            missing.append("entities (Entity = 0)")
        if self.esa_index is None:
            missing.append("esa_index (ESA = 0)")
        return missing


def load_embeddings(path: str | Path) -> dict[str, np.ndarray]:
    """Text format: one line per term, 'term v1 v2 ... vd'."""
    table = {}
    dim = None
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split()
        vec = np.array([float(x) for x in parts[1:]], dtype=float)
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise ValueError(f"{path}:{lineno}: embedding dimension mismatch")
        table[parts[0]] = vec
    return table


def load_synonyms(path: str | Path) -> dict[str, frozenset[str]]:
    """Text format: 'term: syn1, syn2, ...'."""
    table = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        if ":" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'term: syn1, syn2'")
        term, _, rest = line.partition(":")
        syns = frozenset(s.strip() for s in rest.split(",") if s.strip())
        table[term.strip()] = syns
    return table


def load_entities(path: str | Path, min_confidence: float = 0.1) -> dict[str, frozenset[str]]:
    """TSV: item_id<TAB>entity_id<TAB>confidence; low-confidence rows dropped."""
    table: dict[str, set[str]] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected item_id<TAB>entity_id<TAB>confidence")
        item_id, entity_id, conf = parts
        if float(conf) >= min_confidence:
            table.setdefault(item_id, set()).add(entity_id)
    return {k: frozenset(v) for k, v in table.items()}


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


@dataclass(frozen=True, eq=False)
class ConceptProfile:
    """A text's min-max normalized top-k retrieval scores over the concept space.

    ``ranks`` are ascending doc ranks of the concept index (see
    :meth:`PositionalIndex.doc_table`, which orders doc ids as strings) and
    ``values`` the normalized score at each; ``len()`` is the number of
    retrieved concept documents, 0 when none was retrieved.
    """

    ranks: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.ranks)


def esa_retrieval_profile(
    terms: Sequence[str], esa_index: PositionalIndex, params: LmParams, k: int = 100
) -> ConceptProfile:
    """Min-max normalized top-k retrieval score list over the concept space;
    all values are 0 when the top-k scores are equal."""
    ranks, scores = lm_top_ranks(terms, esa_index, params, k)
    if len(scores):
        lo, hi = scores.min(), scores.max()
        span = hi - lo
        scores = (scores - lo) / span if span > 0 else np.zeros(len(scores))
    order = np.argsort(ranks)
    return ConceptProfile(ranks[order], scores[order])


def profile_cosine(a: ConceptProfile, b: ConceptProfile) -> float:
    """Cosine between two concept profiles over the union of their ranks,
    absent ranks read as 0."""
    ranks = np.concatenate((a.ranks, b.ranks))
    if not len(ranks):
        return 0.0
    # Sort and drop repeats: cheaper than np.union1d's hashing at this size.
    ranks.sort()
    union = ranks[np.concatenate(([True], ranks[1:] != ranks[:-1]))]
    va = np.zeros(len(union))
    vb = np.zeros(len(union))
    va[np.searchsorted(union, a.ranks)] = a.values
    vb[np.searchsorted(union, b.ranks)] = b.values
    return _cosine(va, vb)


def _top_tfidf_rows(
    group: np.ndarray, tf: np.ndarray, term: np.ndarray, stems: Sequence[str],
    esa_index: PositionalIndex, k: int,
) -> np.ndarray:
    """The rows of each group's k terms with the highest tf * ln(N/df) over
    the concept space, group by group, best first, ties by stem; row r is
    term ``stems[term[r]]`` (stems distinct). Terms no concept document
    holds are skipped; idf is looked up once per stem."""
    idf = np.array([math.nan if v is None else v for v in esa_index.idfs(stems)])
    stem_rank = np.empty(len(stems), np.int64)
    stem_rank[sorted(range(len(stems)), key=stems.__getitem__)] = np.arange(len(stems))
    score = tf * idf[term]
    rows = np.flatnonzero(~np.isnan(score))
    rows = rows[np.lexsort((stem_rank[term[rows]], -score[rows], group[rows]))]
    # Sorted by group: a row's place in its group is its distance to the first.
    place = np.arange(len(rows)) - np.searchsorted(group[rows], group[rows])
    return rows[place < k]


def top_tfidf_stems(
    counts: Mapping[str, int], esa_index: PositionalIndex, k: int = 20
) -> list[str]:
    """The unit's k stems with the highest tf * ln(N/df) over the concept
    space; ties break lexicographically, unseen stems are skipped. The
    one-unit case of the passage keyword pick."""
    stems, tf = list(counts), np.fromiter(counts.values(), np.int64, len(counts))
    one = np.zeros(len(stems), np.int64)
    return [stems[r] for r in _top_tfidf_rows(one, tf, np.arange(len(stems)), stems, esa_index, k)]


def _exact_matches(cols: _TokenColumns, needle: Sequence[int]) -> np.ndarray:
    """1.0 for each unit whose term ids hold ``needle`` as a contiguous run
    (never when empty or holding an unknown id -1), else 0.0."""
    terms, owner, found, n = cols.term_ids, cols.owner, np.zeros(len(cols.lengths)), len(needle)
    if n == 0 or n > len(terms) or min(needle) < 0:
        return found
    starts = np.flatnonzero(terms[: len(terms) - n + 1] == needle[0])
    for j in range(1, n):
        starts = starts[terms[starts + j] == needle[j]]
    found[owner[starts[owner[starts] == owner[starts + n - 1]]]] = 1.0
    return found


class PassageFeatureExtractor:
    """Computes the 20 passage features for one query over fixed universes.

    The document universe is the retrieved candidate list; the passage
    universe is all passages of those documents. Similarities are computed
    at construction; per-document statistics and the query-side concept
    profile on first use, so a caller reading only ``doc_sims`` and
    ``psg_sims`` pays for nothing else. An optional shared ``esa_cache``
    maps (passage_id, mu) -> :class:`ConceptProfile`, which is
    query-independent and safe to reuse across queries.

    :meth:`matrix` builds the features a column family at a time, each
    family one pass over the concatenated token columns of the passages
    (:class:`_TokenColumns`), and only the families that own a column of
    the schema asked for. Every value equals the per-passage formulas bit
    for bit.
    """

    def __init__(
        self,
        query: Query,
        store: CorpusStore,
        index: PositionalIndex,
        doc_ids: Sequence[str],
        passages_by_doc: Mapping[str, Sequence[Passage]],
        resources: SemanticResources,
        params: LmParams,
        esa_cache: dict | None = None,
    ):
        self.query = query
        self.store = store
        self.index = index
        self.doc_ids = list(doc_ids)
        self.passages_by_doc = passages_by_doc
        self.resources = resources
        self.params = params
        self.esa_cache = esa_cache if esa_cache is not None else {}

        terms = query.stems()
        self.query_terms = terms
        self.unique_query_stems = sorted(set(terms))

        self.doc_sims, self.psg_sims = query_similarities(
            terms, index, self.doc_ids, passages_by_doc, params
        )
        self.doc_sim_sum = sum(self.doc_sims.values())
        self.psg_sim_sum = sum(self.psg_sims.values())
        if resources.embeddings is not None:
            self.query_centroid = self._centroid(self.unique_query_stems)
        else:
            self.query_centroid = None
        if resources.entities is not None:
            self.query_entities = resources.entities.get(query.query_id, frozenset())
        else:
            self.query_entities = None

    @cached_property
    def doc_psg_stats(self) -> dict[str, tuple[float, float, float]]:
        """Max, mean and standard deviation of each document's passage similarities."""
        stats = {}
        for d in self.doc_ids:
            sims = [self.psg_sims[p.passage_id] for p in self.passages_by_doc[d]]
            arr = np.array(sims, dtype=float)
            stats[d] = (float(arr.max()), float(arr.mean()), float(arr.std()))
        return stats

    @cached_property
    def query_profile(self) -> ConceptProfile | None:
        """The query's concept profile; None without a concept index."""
        if self.resources.esa_index is None:
            return None
        return esa_retrieval_profile(self.query_terms, self.resources.esa_index, self.params)

    def _centroid(self, stems: Sequence[str]) -> np.ndarray | None:
        table = self.resources.embeddings
        vecs = [table[s] for s in stems if s in table]
        if not vecs:
            return None
        return np.mean(vecs, axis=0)

    # -- column families: each returns its features' columns in PSG_SCHEMA order --

    def _similarity_columns(self, passages: Sequence[Passage], cols: _TokenColumns) -> np.ndarray:
        rows = []
        for p, doc in zip(passages, cols.docs):
            doc_passages = self.passages_by_doc[p.doc_id]
            pre, follow = neighbors(p, doc_passages)
            rows.append((
                self.psg_sims[p.passage_id] / self.psg_sim_sum if self.psg_sim_sum > 0 else 0.0,
                self.doc_sims[p.doc_id] / self.doc_sim_sum if self.doc_sim_sum > 0 else 0.0,
                *self.doc_psg_stats[p.doc_id],
                p.length / doc.length if doc.length else 1.0,
                self.psg_sims[pre.passage_id],
                self.psg_sims[follow.passage_id],
                float(self.query.unique_term_count),
                (p.ordinal + 1) / len(doc_passages),
            ))
        return np.array(rows, dtype=float).reshape(len(rows), 10).T

    def _overlap_columns(self, passages: Sequence[Passage], cols: _TokenColumns) -> list:
        stems, n = self.unique_query_stems, len(passages)
        psg, term, _, _ = cols.counts
        syn_table = self.resources.synonyms or {}

        def holding(group: Iterable[str]) -> np.ndarray:
            held = np.zeros(n, dtype=np.int64)
            held[psg[np.isin(term, [self.store.tokenizer.term_id(s) for s in group])]] = 1
            return held

        hits = sum((holding([s]) for s in stems), np.zeros(n, np.int64))
        syn_hits = sum((holding([s, *syn_table.get(s, ())]) for s in stems), np.zeros(n, np.int64))
        return [hits / max(len(stems), 1), syn_hits / max(len(stems), 1)]

    def _esa_columns(self, passages: Sequence[Passage], cols: _TokenColumns) -> list:
        """Keywords for every passage from one pick over the count table;
        profiles for the passages the cache lacks."""
        esa = np.zeros(len(passages))
        if not (self.query_profile and len(esa)):
            return [esa]
        esa_index, mu = self.resources.esa_index, self.params.mu
        psg, term, tf, _ = cols.counts
        distinct, inverse = np.unique(term, return_inverse=True)
        stems = [cols.docs[0].vocabulary[t] for t in distinct.tolist()]
        top = _top_tfidf_rows(psg, tf, inverse, stems, esa_index, k=20)
        keywords = np.split(inverse[top], np.searchsorted(psg[top], np.arange(1, len(esa))))
        for i, p in enumerate(passages):
            profile = self.esa_cache.get((p.passage_id, mu))
            if profile is None:
                words = [stems[t] for t in keywords[i].tolist()]
                profile = esa_retrieval_profile(words, esa_index, self.params)
                self.esa_cache[(p.passage_id, mu)] = profile
            esa[i] = profile_cosine(self.query_profile, profile)
        return [esa]

    def _semantic_columns(self, passages: Sequence[Passage], cols: _TokenColumns) -> list:
        """W2V, the cosine of the query's and the passage's embedding
        centroids, and Entity, the Jaccard of their entity sets."""
        w2v, entity = np.zeros(len(passages)), np.zeros(len(passages))
        _, term, _, bounds = cols.counts
        for i, p in enumerate(passages):
            if self.query_centroid is not None:
                vocabulary = cols.docs[i].vocabulary
                stems = sorted(vocabulary[t] for t in term[bounds[i] : bounds[i + 1]].tolist())
                centroid = self._centroid(stems)
                w2v[i] = 0.0 if centroid is None else _cosine(self.query_centroid, centroid)
            if self.query_entities is not None:
                psg_entities = self.resources.entities.get(p.passage_id, frozenset())
                union = self.query_entities | psg_entities
                entity[i] = len(self.query_entities & psg_entities) / len(union) if union else 0.0
        return [w2v, entity]

    def _rows(self, passages: Sequence[Passage], schema: FeatureSchema) -> FeatureMatrix:
        docs = [self.store.get(p.doc_id) for p in passages]
        cols = _TokenColumns(docs, [p.token_range for p in passages])
        built: dict[str, np.ndarray] = {}
        for f in schema.features:
            if f not in built:
                features, build = _FAMILY_OF[f]
                built.update(zip(features, build(self, passages, cols)))
        values = np.array([built[f] for f in schema.features], dtype=float).T
        return FeatureMatrix(
            schema, self.query.query_id, [p.passage_id for p in passages],
            values.reshape(len(passages), len(schema)),
        )

    def matrix(self, schema: FeatureSchema = PSG_SCHEMA) -> FeatureMatrix:
        """Every passage's features named by ``schema`` (a part of
        :data:`PSG_SCHEMA`), documents in ``doc_ids`` order."""
        return self._rows([p for d in self.doc_ids for p in self.passages_by_doc[d]], schema)

    def vector(self, passage: Passage) -> tuple[float, ...]:
        """The passage's 20 features, in :data:`PSG_SCHEMA` order: the one-row
        case of :meth:`matrix`, which never calls it."""
        return tuple(self._rows([passage], PSG_SCHEMA).values[0].tolist())


# The column families: their features, in PSG_SCHEMA order, and builders.
_FAMILY_OF = {
    f: family
    for family in (
        (PSG_FEATURES[:8] + ("QueryLength", "PsgLocation"),
         PassageFeatureExtractor._similarity_columns),
        (("Ent",), lambda ex, passages, cols: [term_entropies(*cols.counts[2:])]),
        (("SW1", "SW2", "PsgLength"), lambda ex, passages, cols: stopword_priors(
            cols.stopword_ids, cols.lengths, len(ex.store.tokenizer.stopwords))),
        (("ExactMatch",), lambda ex, passages, cols: [
            _exact_matches(cols, [ex.store.tokenizer.term_id(t) for t in ex.query_terms])]),
        (("TermOverlap", "SynonymsOverlap"), PassageFeatureExtractor._overlap_columns),
        (("ESA",), PassageFeatureExtractor._esa_columns),
        (("W2V", "Entity"), PassageFeatureExtractor._semantic_columns),
    )
    for f in family[0]
}


def write_svmlight(
    path: str | Path, queries: Iterable[tuple[FeatureMatrix, Sequence[int]]]
) -> None:
    """SVMlight-style dump, one row per matrix row and its grade:
    'grade qid:Q 1:v1 2:v2 ... # item_id'."""
    with Path(path).open("w", encoding="utf-8") as f:
        for matrix, grades in queries:
            for item_id, row, grade in zip(matrix.item_ids, matrix.values.tolist(), grades):
                feats = " ".join(f"{i}:{x!r}" for i, x in enumerate(row, start=1))
                f.write(f"{int(grade)} qid:{matrix.query_id} {feats} # {item_id}\n")


def read_svmlight(
    path: str | Path, schema: FeatureSchema
) -> list[tuple[FeatureMatrix, list[int]]]:
    """Read a dump produced by :func:`write_svmlight`: one feature matrix and
    its grades per query, queries and rows in first-appearance order.
    Features absent from a row read as 0. An item id may appear once per
    query: a repeat would carry a second, possibly contradictory grade."""
    queries: dict[str, tuple[list[str], list[list[float]], list[int]]] = {}
    seen: set[tuple[str, str]] = set()
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        body, _, comment = line.partition("#")
        parts = body.split()
        try:
            if len(parts) < 2 or not parts[1].startswith("qid:"):
                raise ValueError("expected 'grade qid:Q index:value ... # item_id'")
            grade = int(parts[0])
            values = [0.0] * len(schema)
            for field in parts[2:]:
                idx, _, val = field.partition(":")
                i = int(idx)
                if not 1 <= i <= len(schema):
                    raise ValueError(f"feature index {i} outside 1..{len(schema)}")
                values[i - 1] = float(val)
            key = (parts[1][4:], comment.strip())
            if key in seen:
                raise ValueError(f"item {key[1]!r} repeated in query {key[0]!r}")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed SVMlight row: {exc}") from None
        seen.add(key)
        item_ids, rows, grades = queries.setdefault(key[0], ([], [], []))
        item_ids.append(key[1])
        rows.append(values)
        grades.append(grade)
    return [
        (FeatureMatrix(schema, qid, item_ids, rows), grades)
        for qid, (item_ids, rows, grades) in queries.items()
    ]
