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
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from .corpus import CorpusStore, Document, Query, StopwordList
from .index import (
    LmParams, PositionalIndex, doc_lm_similarity, lm_similarity, lm_top_ranks, sdm_components,
)
from .passage import Passage, neighbors, passage_stems, passage_term_counts


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


# -- relevance priors shared by documents and passages --


def stopword_fraction(stopword_ids: np.ndarray) -> float:
    """SW1: fraction of the unit's tokens that are stopwords (id >= 0)."""
    if not len(stopword_ids):
        return 0.0
    return int(np.count_nonzero(stopword_ids >= 0)) / len(stopword_ids)


def stopword_coverage(stopword_ids: np.ndarray, stopwords: StopwordList) -> float:
    """SW2: fraction of the stopword list that appears in the unit."""
    return len(np.unique(stopword_ids[stopword_ids >= 0])) / len(stopwords)


def term_entropy(counts: Collection[int]) -> float:
    """Natural-log entropy of a unit's term distribution, from its term
    counts in order of first occurrence; 0 when empty."""
    total = sum(counts)
    if total == 0:
        return 0.0
    return -sum((c / total) * math.log(c / total) for c in counts if c)


def doc_entropy(term_ids: np.ndarray) -> float:
    """:func:`term_entropy` of a term-id column, bit for bit as over a Counter of its stems."""
    _, first, counts = np.unique(term_ids, return_index=True, return_counts=True)
    return term_entropy(counts[np.argsort(first)].tolist())


def query_similarities(
    terms: Sequence[str],
    store: CorpusStore,
    index: PositionalIndex,
    doc_ids: Sequence[str],
    passages_by_doc: Mapping[str, Sequence[Passage]],
    params: LmParams,
) -> tuple[dict[str, float], dict[str, float]]:
    """Query likelihoods of each candidate document and of each of its
    passages, keyed by id in ``doc_ids`` order."""
    doc_sims = {d: doc_lm_similarity(terms, d, index, params) for d in doc_ids}
    psg_sims = {}
    for d in doc_ids:
        doc = store.get(d)
        for p in passages_by_doc[d]:
            psg_sims[p.passage_id] = lm_similarity(
                terms, passage_term_counts(doc, p), p.length, index, params
            )
    return doc_sims, psg_sims


def doc_features(
    query: Query,
    doc: Document,
    index: PositionalIndex,
    params: LmParams,
    stopwords: StopwordList,
    entropy: float | None = None,
) -> tuple[float, ...]:
    """The 6 document features, in :data:`DOC_SCHEMA` order: SDM components
    + SW1/SW2/Ent priors. ``entropy`` is the document's :func:`doc_entropy`,
    for a caller that keeps it per document."""
    f_t, f_o, f_u = sdm_components(query, doc, index, params)
    return (
        f_t,
        f_o,
        f_u,
        stopword_fraction(doc.stopword_ids),
        stopword_coverage(doc.stopword_ids, stopwords),
        doc_entropy(doc.term_ids) if entropy is None else entropy,
    )


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


def top_tfidf_stems(
    counts: Mapping[str, int], esa_index: PositionalIndex, k: int = 20
) -> list[str]:
    """The unit's k stems with the highest tf * ln(N/df) over the concept
    space; ties break lexicographically, unseen stems are skipped."""
    scored = [
        (-(tf * idf), stem)
        for (stem, tf), idf in zip(counts.items(), esa_index.idfs(counts))
        if idf is not None
    ]
    scored.sort()
    return [stem for _, stem in scored[:k]]


def _is_subsequence(needle: Sequence[str], haystack: Sequence[str]) -> bool:
    """Whether needle occurs as a contiguous run of haystack (never when empty)."""
    needle, haystack = list(needle), list(haystack)
    n = len(needle)
    if n == 0 or n > len(haystack):
        return False
    first = needle[0]
    return any(
        haystack[i] == first and haystack[i : i + n] == needle
        for i in range(len(haystack) - n + 1)
    )


class PassageFeatureExtractor:
    """Computes the 20 passage features for one query over fixed universes.

    The document universe is the retrieved candidate list; the passage
    universe is all passages of those documents. Similarities are computed
    at construction; per-document statistics and the query-side concept
    profile on first use, so a caller reading only ``doc_sims`` and
    ``psg_sims`` pays for nothing else. An optional shared ``esa_cache``
    maps (passage_id, mu) -> :class:`ConceptProfile`, which is
    query-independent and safe to reuse across queries.
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
            terms, store, index, self.doc_ids, passages_by_doc, params
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

    def _esa(self, passage: Passage, counts: Counter) -> float:
        if not self.query_profile:
            return 0.0
        key = (passage.passage_id, self.params.mu)
        profile = self.esa_cache.get(key)
        if profile is None:
            keywords = top_tfidf_stems(counts, self.resources.esa_index)
            profile = esa_retrieval_profile(keywords, self.resources.esa_index, self.params)
            self.esa_cache[key] = profile
        return profile_cosine(self.query_profile, profile)

    def _w2v(self, stems: Sequence[str]) -> float:
        if self.query_centroid is None:
            return 0.0
        centroid = self._centroid(sorted(set(stems)))
        if centroid is None:
            return 0.0
        return _cosine(self.query_centroid, centroid)

    def _entity(self, passage: Passage) -> float:
        if self.query_entities is None:
            return 0.0
        psg_entities = self.resources.entities.get(passage.passage_id, frozenset())
        union = self.query_entities | psg_entities
        if not union:
            return 0.0
        return len(self.query_entities & psg_entities) / len(union)

    def _overlaps(self, psg_stems: set[str]) -> tuple[float, float]:
        stems = self.unique_query_stems
        if not stems:
            return 0.0, 0.0
        hits = sum(1 for s in stems if s in psg_stems)
        syn_table = self.resources.synonyms or {}
        syn_hits = 0
        for s in stems:
            if s in psg_stems or any(x in psg_stems for x in syn_table.get(s, ())):
                syn_hits += 1
        return hits / len(stems), syn_hits / len(stems)

    def vector(self, passage: Passage) -> tuple[float, ...]:
        """The passage's 20 features, in :data:`PSG_SCHEMA` order."""
        doc = self.store.get(passage.doc_id)
        doc_passages = self.passages_by_doc[passage.doc_id]
        stopword_ids = doc.stopword_ids[passage.token_range[0] : passage.token_range[1]]
        stems = passage_stems(doc, passage)
        counts = Counter(stems)
        stem_set = set(stems)

        sim = self.psg_sims[passage.passage_id]
        psg_query_sim = sim / self.psg_sim_sum if self.psg_sim_sum > 0 else 0.0
        doc_sim = self.doc_sims[passage.doc_id]
        doc_query_sim = doc_sim / self.doc_sim_sum if self.doc_sim_sum > 0 else 0.0
        max_pd, avg_pd, std_pd = self.doc_psg_stats[passage.doc_id]
        length_ratio = passage.length / doc.length if doc.length else 1.0
        pre, follow = neighbors(passage, doc_passages)
        sim_pre = self.psg_sims[pre.passage_id]
        sim_follow = self.psg_sims[follow.passage_id]
        term_overlap, syn_overlap = self._overlaps(stem_set)
        exact = 1.0 if _is_subsequence(self.query_terms, stems) else 0.0

        return (
            psg_query_sim,
            doc_query_sim,
            max_pd,
            avg_pd,
            std_pd,
            length_ratio,
            sim_pre,
            sim_follow,
            term_entropy(counts.values()),
            stopword_fraction(stopword_ids),
            stopword_coverage(stopword_ids, self.store.tokenizer.stopwords),
            float(self.query.unique_term_count),
            exact,
            term_overlap,
            syn_overlap,
            float(np.count_nonzero(stopword_ids < 0)),
            (passage.ordinal + 1) / len(doc_passages),
            self._esa(passage, counts),
            self._w2v(stems),
            self._entity(passage),
        )

    def matrix(self) -> FeatureMatrix:
        """Every passage's features, documents in ``doc_ids`` order."""
        passages = [p for d in self.doc_ids for p in self.passages_by_doc[d]]
        return FeatureMatrix(
            PSG_SCHEMA, self.query.query_id, [p.passage_id for p in passages],
            [self.vector(p) for p in passages],
        )


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
