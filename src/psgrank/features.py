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
    LmParams, PositionalIndex, doc_lm_similarity, lm_similarity, lm_top_ranks, sdm_components,
)
from .passage import Passage, neighbors, passage_term_counts, passage_tokens


class SchemaError(ValueError):
    """Feature schema mismatch or name collision."""


@dataclass(frozen=True)
class FeatureSchema:
    """Named, ordered feature list; concatenation records part boundaries."""

    name: str
    features: tuple[str, ...]
    boundaries: tuple[int, ...] = ()

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


@dataclass(frozen=True)
class FeatureVector:
    """Feature values for one (query, item) pair under a schema."""

    schema: FeatureSchema
    values: tuple[float, ...]
    query_id: str
    item_id: str

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(map(float, self.values)))
        if len(self.values) != len(self.schema):
            raise SchemaError(
                f"vector has {len(self.values)} values for schema "
                f"{self.schema.name!r} of length {len(self.schema)}"
            )
        if not all(map(math.isfinite, self.values)):
            raise SchemaError(f"non-finite feature value for item {self.item_id!r}")

    def value_of(self, feature: str) -> float:
        return self.values[self.schema.index_of(feature)]


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """One query's feature rows under one schema.

    ``values`` is a read-only C-contiguous float64 array with one row per
    item id, checked for finite values once, at construction; ``len()`` is
    the row count. This is the type the learned-ranker path carries from
    extraction to scoring; :class:`FeatureVector` is its one-row form.
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
        values = values.view()
        values.flags.writeable = False
        object.__setattr__(self, "item_ids", item_ids)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_vectors(
        cls,
        vectors: Sequence[FeatureVector],
        schema: FeatureSchema | None = None,
        query_id: str | None = None,
    ) -> "FeatureMatrix":
        """Stack one query's vectors; ``schema`` and ``query_id`` are needed
        only when ``vectors`` may be empty."""
        if vectors:
            schema = schema or vectors[0].schema
            query_id = query_id if query_id is not None else vectors[0].query_id
        elif schema is None or query_id is None:
            raise ValueError("an empty matrix needs a schema and a query id")
        for v in vectors:
            if v.schema != schema:
                raise SchemaError("cannot stack vectors of mixed schemas")
            if v.query_id != query_id:
                raise SchemaError("cannot stack vectors of mixed queries")
        return cls(schema, query_id, [v.item_id for v in vectors], [v.values for v in vectors])

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

    def vectors(self) -> list[FeatureVector]:
        return [
            FeatureVector(self.schema, tuple(row), self.query_id, item_id)
            for item_id, row in zip(self.item_ids, self.values.tolist())
        ]


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
    unprefixed names and the part boundary is recorded."""
    exclusions = set(exclusions)
    unknown = exclusions - set(b.features)
    if unknown:
        raise SchemaError(f"exclusions {sorted(unknown)} not in schema {b.name!r}")
    left = tuple(a_prefix + f for f in a.features)
    right = tuple(b_prefix + f for f in b.features if f not in exclusions)
    collisions = set(left) & set(right)
    if collisions:
        raise SchemaError(f"feature name collision on concat: {sorted(collisions)}")
    boundaries = a.boundaries if a.boundaries else (0,)
    return FeatureSchema(
        name or f"{a.name}+{b.name}",
        left + right,
        boundaries=boundaries + (len(left),),
    )


def concat(
    a: FeatureVector,
    b: FeatureVector,
    exclusions: Iterable[str] = (),
    name: str | None = None,
    a_prefix: str = "",
    b_prefix: str = "",
) -> FeatureVector:
    """Concatenate two vectors of one (query, item) pair; see concat_schemas."""
    if a.query_id != b.query_id:
        raise SchemaError("cannot concatenate vectors of different queries")
    schema = concat_schemas(
        a.schema, b.schema, name=name, a_prefix=a_prefix, b_prefix=b_prefix,
        exclusions=exclusions,
    )
    exclusions = set(exclusions)
    right = tuple(
        v for f, v in zip(b.schema.features, b.values) if f not in exclusions
    )
    return FeatureVector(schema, tuple(a.values) + right, a.query_id, a.item_id)


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


def stopword_fraction(tokens) -> float:
    """SW1: fraction of the unit's tokens that are stopwords."""
    if not tokens:
        return 0.0
    return sum(1 for t in tokens if t.is_stopword) / len(tokens)


def stopword_coverage(tokens, stopwords: StopwordList) -> float:
    """SW2: fraction of the stopword list that appears in the unit."""
    present = {t.surface.lower() for t in tokens if t.is_stopword}
    return len(present) / len(stopwords)


def term_entropy(counts: Mapping[str, int]) -> float:
    """Natural-log entropy of the unit's term distribution; 0 when empty."""
    total = sum(counts.values())
    if total == 0:
        return 0.0
    return -sum((c / total) * math.log(c / total) for c in counts.values() if c)


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
) -> FeatureVector:
    """The 6 document features: SDM components + SW1/SW2/Ent priors."""
    f_t, f_o, f_u = sdm_components(query, doc, index, params)
    values = (
        f_t,
        f_o,
        f_u,
        stopword_fraction(doc.tokens),
        stopword_coverage(doc.tokens, stopwords),
        term_entropy(doc.stem_counts()),
    )
    return FeatureVector(DOC_SCHEMA, values, query.query_id, doc.doc_id)


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
    n = len(needle)
    if n == 0 or n > len(haystack):
        return False
    for i in range(len(haystack) - n + 1):
        if list(haystack[i : i + n]) == list(needle):
            return True
    return False


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

    def vector(self, passage: Passage) -> FeatureVector:
        doc = self.store.get(passage.doc_id)
        doc_passages = self.passages_by_doc[passage.doc_id]
        tokens = passage_tokens(doc, passage)
        counts = passage_term_counts(doc, passage)
        stems = [t.stem for t in tokens]
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

        values = (
            psg_query_sim,
            doc_query_sim,
            max_pd,
            avg_pd,
            std_pd,
            length_ratio,
            sim_pre,
            sim_follow,
            term_entropy(counts),
            stopword_fraction(tokens),
            stopword_coverage(tokens, self.store.tokenizer.stopwords),
            float(self.query.unique_term_count),
            exact,
            term_overlap,
            syn_overlap,
            float(sum(1 for t in tokens if not t.is_stopword)),
            (passage.ordinal + 1) / len(doc_passages),
            self._esa(passage, counts),
            self._w2v(stems),
            self._entity(passage),
        )
        return FeatureVector(PSG_SCHEMA, values, self.query.query_id, passage.passage_id)

    def all_vectors(self) -> list[FeatureVector]:
        out = []
        for d in self.doc_ids:
            for p in self.passages_by_doc[d]:
                out.append(self.vector(p))
        return out


def write_svmlight(
    path: str | Path,
    vectors: Sequence[FeatureVector],
    grades: Mapping[tuple[str, str], int] | None = None,
) -> None:
    """SVMlight-style dump: 'grade qid:Q 1:v1 2:v2 ... # item_id'."""
    grades = grades or {}
    with Path(path).open("w", encoding="utf-8") as f:
        for v in vectors:
            grade = grades.get((v.query_id, v.item_id), 0)
            feats = " ".join(f"{i}:{x!r}" for i, x in enumerate(v.values, start=1))
            f.write(f"{grade} qid:{v.query_id} {feats} # {v.item_id}\n")


def read_svmlight(
    path: str | Path, schema: FeatureSchema
) -> list[tuple[str, str, FeatureVector, int]]:
    """Read a dump produced by :func:`write_svmlight`."""
    rows = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        body, _, comment = line.partition("#")
        item_id = comment.strip()
        parts = body.split()
        if len(parts) < 2 or not parts[1].startswith("qid:"):
            raise ValueError(f"{path}:{lineno}: malformed SVMlight row")
        grade = int(parts[0])
        qid = parts[1][4:]
        values = [0.0] * len(schema)
        for field in parts[2:]:
            idx, _, val = field.partition(":")
            values[int(idx) - 1] = float(val)
        rows.append((qid, item_id, FeatureVector(schema, tuple(values), qid, item_id), grade))
    return rows
