"""Leave-one-out experiment harness: tuning, training, scoring, reporting.

Per fold (one held-out test query), the remaining queries are split
80/20 into train and validation. Learned components are tuned
hierarchically: the document ranker first (validation MAP), then the
passage ranker (validation passage metric), then method-level free
parameters; unsupervised baselines tune their free parameters on the
train split only. The held-out query's judgments are never read while
tuning or training its fold.

All randomness flows from the config seed; identical configs produce
byte-identical run files, models and reports.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from . import __version__
from .corpus import Query, ingest_corpus, load_topics
from .evaluation import (
    CvPlan,
    JudgmentSet,
    average_precision,
    interpolated_precision,
    load_char_qrels,
    load_doc_qrels,
    load_sentence_qrels,
    mean_metric,
    paired_ttest,
    precision_at,
)
from .features import (
    DOC_SCHEMA,
    PSG_SCHEMA,
    FeatureVector,
    PassageFeatureExtractor,
    SemanticResources,
    doc_features,
    load_embeddings,
    load_entities,
    load_synonyms,
    minmax_normalize,
)
from .index import LmParams, PositionalIndex, SdmWeights, build_index, retrieve_lm
from .ltr import GradedExample, LinearModel, bucket_grade, score, train_coordinate_ascent, train_pairwise
from .passage import Passage, SegmentationParams, char_overlap, segment
from .rank import (
    FusionParams,
    RankedList,
    _normalize_by_sum,
    build_jpdm_vectors,
    build_jpds_vectors,
    build_smpd_vectors,
    positional_similarities,
    rerank_fpd,
    rerank_rrf,
    write_trec_run,
)

DOC_METHODS = (
    "LM",
    "SDM",
    "DocPsg",
    "init-LTR",
    "RRF",
    "SMPD",
    "JPDs",
    "JPDs-second",
    "JPDs-third",
    "JPDs-lowest",
    "JPD-2",
    "JPDm-avg",
    "JPDm-max",
    "JPDm-min",
    "FPD",
)
PSG_METHODS = ("QSF", "PLM", "PsgLTR")
ALL_METHODS = DOC_METHODS + PSG_METHODS

TRAINERS = ("pairwise_hinge", "coordinate_ascent")

# Methods that need a ranking of the candidate documents' passages.
_NEEDS_PSG_RANKING = (
    "RRF",
    "SMPD",
    "JPDs",
    "JPDs-second",
    "JPDs-third",
    "JPDs-lowest",
    "JPD-2",
    "FPD",
)
_NEEDS_INIT_LTR = _NEEDS_PSG_RANKING + ("init-LTR", "JPDm-avg", "JPDm-max", "JPDm-min")
_JPDS_WHICH = {
    "JPDs": "best",
    "JPDs-second": "second",
    "JPDs-third": "third",
    "JPDs-lowest": "lowest",
}


class ConfigError(ValueError):
    """Invalid experiment configuration; message lists every problem."""


def _default_grids() -> dict:
    return {
        "mu": [500.0, 1500.0, 2500.0],
        "svm_c": [0.0001, 0.01, 0.1],
        "alpha": [round(0.1 * i, 1) for i in range(11)],
        "nu": [0.0, 30.0, 60.0, 90.0, 100.0],
        "qsf_lambda": [round(0.1 * i, 1) for i in range(1, 10)],
        "docpsg_lambda": [round(0.1 * i, 1) for i in range(1, 10)],
        "plm_sigma": [50.0, 100.0, 150.0, 200.0, 250.0, 300.0],
        "plm_lambda": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
        "plm_beta": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
        "sdm_weights": [
            [round(a, 1), round(b, 1), round(1.0 - a - b, 1)]
            for a in [0.1 * i for i in range(11)]
            for b in [0.1 * i for i in range(11)]
            if a + b <= 1.0 + 1e-9
        ],
    }


def _default_trainer_params() -> dict:
    return {
        "epochs": 200,
        "learning_rate": 0.5,
        "max_pairs": 1_000_000,
        "restarts": 2,
        "max_passes": 25,
    }


@dataclass
class ExperimentConfig:
    """Resolved configuration for one experiment run."""

    corpus: Path
    topics: Path
    methods: list[str]
    corpus_format: str = "jsonl"
    doc_qrels: Path | None = None
    psg_qrels: Path | None = None
    psg_qrels_mode: str = "char_focused"
    embeddings: Path | None = None
    synonyms: Path | None = None
    entities: Path | None = None
    esa_corpus: Path | None = None
    window_len: int = 300
    segmentation_mode: str = "fixed"
    trainer: str = "pairwise_hinge"
    psg_ranker: str = "ltr"
    seed: int = 0
    init_mu: float = 1000.0
    doc_cutoff: int = 1000
    psg_cutoff: int = 1500
    grids: dict = field(default_factory=_default_grids)
    trainer_params: dict = field(default_factory=_default_trainer_params)
    exclusions: list[str] = field(default_factory=list)
    ttest_alpha: float = 0.05
    ttest_corrections: int | None = None
    workers: int = 1
    sentence_universe: str = "retrieved"

    @classmethod
    def from_dict(cls, data: dict, base_dir: Path | None = None) -> "ExperimentConfig":
        data = dict(data)
        if "method" in data and "methods" not in data:
            m = data.pop("method")
            data["methods"] = [m] if isinstance(m, str) else list(m)
        base = Path(base_dir) if base_dir else Path(".")

        def path_or_none(key):
            v = data.get(key)
            return (base / v) if v else None

        grids = _default_grids()
        grids.update(data.get("grids", {}))
        trainer_params = _default_trainer_params()
        trainer_params.update(data.get("trainer_params", {}))
        known = {
            "corpus_format", "psg_qrels_mode", "window_len", "segmentation_mode",
            "trainer", "psg_ranker", "seed", "init_mu", "doc_cutoff", "psg_cutoff",
            "exclusions", "ttest_alpha", "ttest_corrections", "workers",
            "sentence_universe",
        }
        extra = {k: v for k, v in data.items() if k in known}
        unknown = set(data) - known - {
            "corpus", "topics", "methods", "doc_qrels", "psg_qrels", "embeddings",
            "synonyms", "entities", "esa_corpus", "grids", "trainer_params",
        }
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(
            corpus=base / data.get("corpus", "corpus.jsonl"),
            topics=base / data.get("topics", "topics.tsv"),
            methods=list(data.get("methods", [])),
            doc_qrels=path_or_none("doc_qrels"),
            psg_qrels=path_or_none("psg_qrels"),
            embeddings=path_or_none("embeddings"),
            synonyms=path_or_none("synonyms"),
            entities=path_or_none("entities"),
            esa_corpus=path_or_none("esa_corpus"),
            grids=grids,
            trainer_params=trainer_params,
            **extra,
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        data = json.loads(path.read_text(encoding="utf-8"))
        return cls.from_dict(data, base_dir=path.parent)

    def needs_doc_qrels(self) -> bool:
        return any(m in DOC_METHODS for m in self.methods)

    def needs_psg_qrels(self) -> bool:
        # Any passage ranking (learned or QSF) is tuned by a passage metric.
        if any(m in PSG_METHODS for m in self.methods):
            return True
        return any(m in _NEEDS_PSG_RANKING for m in self.methods)

    def validate(self) -> list[str]:
        """Collect every problem; empty list means the config is usable."""
        problems = []
        if not self.methods:
            problems.append("no methods configured")
        for m in self.methods:
            if m not in ALL_METHODS:
                problems.append(f"unknown method {m!r}; allowed: {', '.join(ALL_METHODS)}")
        if len(set(self.methods)) != len(self.methods):
            problems.append("duplicate methods configured")
        if self.trainer not in TRAINERS:
            problems.append(f"unknown trainer {self.trainer!r}; allowed: {', '.join(TRAINERS)}")
        if self.psg_ranker not in ("ltr", "qsf"):
            problems.append(f"psg_ranker must be 'ltr' or 'qsf', got {self.psg_ranker!r}")
        if self.psg_qrels_mode not in ("char_focused", "sentence_binary"):
            problems.append(f"unknown psg_qrels_mode {self.psg_qrels_mode!r}")
        if self.segmentation_mode not in ("fixed", "sentence"):
            problems.append(f"unknown segmentation_mode {self.segmentation_mode!r}")
        if self.sentence_universe not in ("retrieved", "judged"):
            problems.append(f"unknown sentence_universe {self.sentence_universe!r}")
        if not self.corpus.exists():
            problems.append(f"corpus not found: {self.corpus}")
        if not self.topics.exists():
            problems.append(f"topics not found: {self.topics}")
        if self.needs_doc_qrels():
            if self.doc_qrels is None:
                problems.append("configured methods need doc_qrels")
            elif not self.doc_qrels.exists():
                problems.append(f"doc_qrels not found: {self.doc_qrels}")
        if self.needs_psg_qrels():
            if self.psg_qrels is None:
                problems.append("configured methods need psg_qrels")
            elif not self.psg_qrels.exists():
                problems.append(f"psg_qrels not found: {self.psg_qrels}")
        for key, path in (
            ("embeddings", self.embeddings),
            ("synonyms", self.synonyms),
            ("entities", self.entities),
            ("esa_corpus", self.esa_corpus),
        ):
            if path is not None and not path.exists():
                problems.append(f"{key} not found: {path}")
        known_grids = _default_grids()
        for name in sorted(set(self.grids) - set(known_grids)):
            problems.append(f"unknown grid {name!r}; known: {', '.join(known_grids)}")
        for name in known_grids:
            if not self.grids.get(name):
                problems.append(f"grid {name!r} is empty")
        known_params = _default_trainer_params()
        for name in sorted(set(self.trainer_params) - set(known_params)):
            problems.append(f"unknown trainer_params {name!r}; known: {', '.join(known_params)}")
        if self.window_len < 1:
            problems.append(f"window_len must be >= 1, got {self.window_len}")
        if self.doc_cutoff < 1 or self.psg_cutoff < 1:
            problems.append("cutoffs must be >= 1")
        if self.workers < 1:
            problems.append(f"workers must be >= 1, got {self.workers}")
        problems.extend(_parse_exclusions(self.exclusions)[2])
        return problems

    def resolved(self) -> dict:
        out = {}
        for key, value in self.__dict__.items():
            out[key] = str(value) if isinstance(value, Path) else value
        return out


def _parse_exclusions(exclusions: Sequence[str]):
    """Split 'doc.X' / 'psg.X' / bare names into per-schema exclusion sets."""
    doc_excl, psg_excl, problems = set(), set(), []
    for name in exclusions:
        if name.startswith("doc."):
            bare, targets = name[4:], ("doc",)
        elif name.startswith("psg."):
            bare, targets = name[4:], ("psg",)
        else:
            bare, targets = name, ("doc", "psg")
        hit = False
        if "doc" in targets and bare in DOC_SCHEMA.features:
            doc_excl.add(bare)
            hit = True
        if "psg" in targets and bare in PSG_SCHEMA.features:
            psg_excl.add(bare)
            hit = True
        if not hit:
            problems.append(
                f"unknown feature {name!r}; document features: "
                f"{', '.join(DOC_SCHEMA.features)}; passage features: "
                f"{', '.join(PSG_SCHEMA.features)}"
            )
    return doc_excl, psg_excl, problems


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


@dataclass
class _QueryData:
    """Cached per-query artifacts shared across folds (judgment-free)."""

    query: Query
    c_init: RankedList
    passages_by_doc: dict[str, list[Passage]]
    passage_spans: dict[str, tuple[str, int, int]]
    doc_vectors: dict[float, dict[str, FeatureVector]]
    psg_vectors: dict[float, dict[str, FeatureVector]]
    doc_sims: dict[float, dict[str, float]]
    psg_sims: dict[float, dict[str, float]]
    psg_doc: dict[str, str]
    psg_grades: dict[str, int]
    pos_sims: dict = field(default_factory=dict)  # (mu, sigma) -> {pid: sim}


def _subset_vector(v: FeatureVector, schema, indices) -> FeatureVector:
    return FeatureVector(schema, tuple(v.values[i] for i in indices), v.query_id, v.item_id)


class _Pipeline:
    """Loads artifacts, stages per-query data, and executes folds."""

    def __init__(self, config: ExperimentConfig):
        problems = config.validate()
        if problems:
            raise ConfigError("; ".join(problems))
        self.config = config
        self.store = ingest_corpus(config.corpus, config.corpus_format)
        self.index = build_index(self.store)
        self.seg_params = SegmentationParams(config.window_len, config.segmentation_mode)
        self.doc_judgments = load_doc_qrels(config.doc_qrels) if config.doc_qrels else None
        if config.psg_qrels:
            if config.psg_qrels_mode == "char_focused":
                self.psg_judgments = load_char_qrels(config.psg_qrels)
            else:
                self.psg_judgments = load_sentence_qrels(config.psg_qrels)
        else:
            self.psg_judgments = None

        self.resources = SemanticResources(
            embeddings=load_embeddings(config.embeddings) if config.embeddings else None,
            synonyms=load_synonyms(config.synonyms) if config.synonyms else None,
            entities=load_entities(config.entities) if config.entities else None,
            esa_index=self._esa_index(),
        )

        doc_excl, psg_excl, _ = _parse_exclusions(config.exclusions)
        self.doc_schema = DOC_SCHEMA.without(doc_excl) if doc_excl else DOC_SCHEMA
        self.psg_schema = PSG_SCHEMA.without(psg_excl) if psg_excl else PSG_SCHEMA
        self._doc_keep = [DOC_SCHEMA.index_of(f) for f in self.doc_schema.features]
        self._psg_keep = [PSG_SCHEMA.index_of(f) for f in self.psg_schema.features]

        all_queries = load_topics(config.topics, self.store.tokenizer)
        self.queries = {q.query_id: q for q in self._filter_queries(all_queries)}
        if len(self.queries) < 2:
            raise ConfigError(
                "need at least 2 judged queries for leave-one-out cross validation"
            )
        self._segmented: dict[str, list[Passage]] = {}
        self._query_data: dict[str, _QueryData] = {}
        self._esa_cache: dict = {}

    def _esa_index(self) -> PositionalIndex:
        if self.config.esa_corpus:
            esa_store = ingest_corpus(self.config.esa_corpus, self.config.corpus_format)
            return build_index(esa_store)
        return self.index

    def _filter_queries(self, queries: Sequence[Query]) -> list[Query]:
        """Drop queries with no relevant items in the required qrels."""
        kept = []
        for q in queries:
            ok = True
            if self.config.needs_doc_qrels() and self.doc_judgments is not None:
                ok = ok and self.doc_judgments.has_judgments(q.query_id)
            if self.config.needs_psg_qrels() and self.psg_judgments is not None:
                ok = ok and self.psg_judgments.has_judgments(q.query_id)
            if ok:
                kept.append(q)
        return kept

    def _passages(self, doc_id: str) -> list[Passage]:
        got = self._segmented.get(doc_id)
        if got is None:
            got = segment(self.store.get(doc_id), self.seg_params)
            self._segmented[doc_id] = got
        return got

    # -- per-query staging --

    def query_data(self, query_id: str) -> _QueryData:
        data = self._query_data.get(query_id)
        if data is None:
            data = self._stage_query(self.queries[query_id])
            self._query_data[query_id] = data
        return data

    def _candidate_doc_ids(self, query: Query, c_init: RankedList) -> list[str]:
        if (
            self.config.segmentation_mode == "sentence"
            and self.config.sentence_universe == "judged"
            and self.psg_judgments is not None
        ):
            judged = {
                self._doc_of_sentence(pid)
                for pid in self.psg_judgments.grades.get(query.query_id, {})
            }
            return sorted(d for d in judged if d in self.store.by_id)
        return c_init.ids()

    @staticmethod
    def _doc_of_sentence(pid: str) -> str:
        from .passage import parse_passage_id

        return parse_passage_id(pid)[0]

    def _stage_query(self, query: Query) -> _QueryData:
        cfg = self.config
        c_init = retrieve_lm(query, self.index, LmParams(cfg.init_mu), cfg.doc_cutoff)
        doc_ids = self._candidate_doc_ids(query, c_init)
        passages_by_doc = {d: self._passages(d) for d in doc_ids}
        passage_spans = {
            p.passage_id: (d, p.char_range[0], p.char_range[1])
            for d, plist in passages_by_doc.items()
            for p in plist
        }
        psg_doc = {p: d for p, (d, _, _) in passage_spans.items()}
        data = _QueryData(
            query=query,
            c_init=c_init,
            passages_by_doc=passages_by_doc,
            passage_spans=passage_spans,
            doc_vectors={},
            psg_vectors={},
            doc_sims={},
            psg_sims={},
            psg_doc=psg_doc,
            psg_grades=self._passage_grades(query.query_id, passages_by_doc),
        )
        return data

    def _passage_grades(
        self, query_id: str, passages_by_doc: Mapping[str, Sequence[Passage]]
    ) -> dict[str, int]:
        grades = {}
        if self.psg_judgments is None:
            return grades
        if self.psg_judgments.mode == "char_focused":
            spans_by_doc = self.psg_judgments.char_spans.get(query_id, {})
            for d, plist in passages_by_doc.items():
                spans = spans_by_doc.get(d)
                for p in plist:
                    if not spans or p.char_range[1] <= p.char_range[0]:
                        grades[p.passage_id] = 0
                        continue
                    overlap, total = char_overlap(p, spans)
                    grades[p.passage_id] = bucket_grade(overlap / total) if total else 0
        else:
            judged = self.psg_judgments.grades.get(query_id, {})
            for plist in passages_by_doc.values():
                for p in plist:
                    grades[p.passage_id] = judged.get(p.passage_id, 0)
        return grades

    def ensure_features(self, query_id: str, mu: float) -> None:
        data = self.query_data(query_id)
        if mu in data.doc_vectors:
            return
        params = LmParams(mu)
        query = data.query
        doc_ids = sorted(data.passages_by_doc)
        extractor = PassageFeatureExtractor(
            query,
            self.store,
            self.index,
            doc_ids,
            data.passages_by_doc,
            self.resources,
            params,
            esa_cache=self._esa_cache,
        )
        data.doc_sims[mu] = dict(extractor.doc_sims)
        data.psg_sims[mu] = dict(extractor.psg_sims)
        psg_vectors = {}
        for d in doc_ids:
            for p in data.passages_by_doc[d]:
                full = extractor.vector(p)
                psg_vectors[p.passage_id] = (
                    full
                    if self.psg_schema is PSG_SCHEMA
                    else _subset_vector(full, self.psg_schema, self._psg_keep)
                )
        data.psg_vectors[mu] = psg_vectors
        doc_vectors = {}
        for d in doc_ids:
            full = doc_features(
                query, self.store.get(d), self.index, params, self.store.tokenizer.stopwords
            )
            doc_vectors[d] = (
                full
                if self.doc_schema is DOC_SCHEMA
                else _subset_vector(full, self.doc_schema, self._doc_keep)
            )
        data.doc_vectors[mu] = doc_vectors

    def positional_sims(self, query_id: str, mu: float, sigma: float) -> dict[str, float]:
        data = self.query_data(query_id)
        key = (mu, sigma)
        got = data.pos_sims.get(key)
        if got is None:
            params = LmParams(mu)
            got = {}
            for d in sorted(data.passages_by_doc):
                for p in data.passages_by_doc[d]:
                    scores = positional_similarities(
                        data.query, self.store, self.index, p, params, sigma
                    )
                    got[p.passage_id] = float(scores.max()) if scores.size else 0.0
            data.pos_sims[key] = got
        return got

    # -- ranking building blocks --

    def qsf_ranking(
        self, query_id: str, mu: float, lam: float, k: int | None = None
    ) -> RankedList:
        self.ensure_features(query_id, mu)
        data = self.query_data(query_id)
        norm_psg = _normalize_by_sum(data.psg_sims[mu])
        norm_doc = _normalize_by_sum(data.doc_sims[mu])
        scores = {
            pid: (1.0 - lam) * norm_psg[pid] + lam * norm_doc[data.psg_doc[pid]]
            for pid in norm_psg
        }
        return RankedList.from_scores(query_id, scores, k=k)

    def plm_ranking(
        self, query_id: str, mu: float, sigma: float, lam: float, beta: float,
        k: int | None = None,
    ) -> RankedList:
        self.ensure_features(query_id, mu)
        data = self.query_data(query_id)
        norm_pos = _normalize_by_sum(self.positional_sims(query_id, mu, sigma))
        norm_psg = _normalize_by_sum(data.psg_sims[mu])
        norm_doc = _normalize_by_sum(data.doc_sims[mu])
        scores = {
            pid: lam * norm_pos[pid]
            + beta * norm_psg[pid]
            + (1.0 - lam - beta) * norm_doc[data.psg_doc[pid]]
            for pid in norm_psg
        }
        return RankedList.from_scores(query_id, scores, k=k)

    def docpsg_ranking(self, query_id: str, mu: float, lambda_max: float) -> RankedList:
        import math

        self.ensure_features(query_id, mu)
        data = self.query_data(query_id)
        doc_ids = sorted(data.passages_by_doc)
        if not doc_ids:
            return RankedList(query_id, ())
        log_lens = {d: math.log1p(self.index.doc_lengths[d]) for d in doc_ids}
        lo, hi = min(log_lens.values()), max(log_lens.values())
        span = hi - lo
        best_psg = {}
        for d in doc_ids:
            best_psg[d] = max(
                (data.psg_sims[mu][p.passage_id] for p in data.passages_by_doc[d]),
                default=0.0,
            )
        scores = {}
        for d in doc_ids:
            mm = (log_lens[d] - lo) / span if span > 0 else 0.0
            lam_d = lambda_max * (1.0 - mm)
            scores[d] = lam_d * data.doc_sims[mu][d] + (1.0 - lam_d) * best_psg[d]
        return RankedList.from_scores(query_id, scores)

    def sdm_ranking(self, query_id: str, mu: float, weights: SdmWeights) -> RankedList:
        self.ensure_features(query_id, mu)
        data = self.query_data(query_id)
        w = (weights.w_unigram, weights.w_ordered, weights.w_unordered)
        scores = {}
        for d, vec in data.doc_vectors[mu].items():
            f_t = vec.value_of("SdmUnigrams") if "SdmUnigrams" in self.doc_schema.features else 0.0
            f_o = (
                vec.value_of("SdmOrderedBigrams")
                if "SdmOrderedBigrams" in self.doc_schema.features
                else 0.0
            )
            f_u = (
                vec.value_of("SdmUnorderedBigrams")
                if "SdmUnorderedBigrams" in self.doc_schema.features
                else 0.0
            )
            scores[d] = w[0] * f_t + w[1] * f_o + w[2] * f_u
        return RankedList.from_scores(query_id, scores)

    def normalized_doc_vectors(self, query_id: str, mu: float) -> list[FeatureVector]:
        self.ensure_features(query_id, mu)
        data = self.query_data(query_id)
        ordered = [data.doc_vectors[mu][d] for d in sorted(data.doc_vectors[mu])]
        return minmax_normalize(ordered)

    def normalized_psg_vectors(
        self, query_id: str, mu: float, universe: Sequence[str] | None = None
    ) -> list[FeatureVector]:
        self.ensure_features(query_id, mu)
        data = self.query_data(query_id)
        if universe is None:
            universe = sorted(data.psg_vectors[mu])
        ordered = [data.psg_vectors[mu][p] for p in universe]
        return minmax_normalize(ordered)

    # -- metric helpers --

    def doc_metric(self, run: RankedList) -> float | None:
        return average_precision(run, self.doc_judgments, self.config.doc_cutoff)

    def psg_metric(self, run: RankedList, query_id: str) -> float | None:
        if self.psg_judgments.mode == "char_focused":
            data = self.query_data(query_id)
            got = interpolated_precision(
                run, self.psg_judgments, data.passage_spans, recall_points=()
            )
            return None if got is None else got[1]
        return average_precision(run, self.psg_judgments, self.config.psg_cutoff)


@dataclass
class FoldModels:
    """Everything trained or tuned for one fold."""

    test_query: str
    train: list[str]
    validation: list[str]
    init_mu: float | None = None
    init_model: LinearModel | None = None
    qsf_mu: float | None = None
    qsf_lambda: float | None = None
    psg_mu: float | None = None
    psg_model: LinearModel | None = None
    method_params: dict = field(default_factory=dict)
    method_models: dict = field(default_factory=dict)


def _trainer_grid(config: ExperimentConfig) -> list[dict]:
    if config.trainer == "pairwise_hinge":
        return [{"c": c} for c in config.grids["svm_c"]]
    return [{}]


def _train(config: ExperimentConfig, data: Sequence[GradedExample], hyper: dict) -> LinearModel:
    tp = config.trainer_params
    if config.trainer == "pairwise_hinge":
        return train_pairwise(
            data,
            c=hyper.get("c", 0.01),
            epochs=int(tp["epochs"]),
            seed=config.seed,
            learning_rate=float(tp["learning_rate"]),
            max_pairs=int(tp["max_pairs"]),
        )
    return train_coordinate_ascent(
        data,
        restarts=int(tp["restarts"]),
        seed=config.seed,
        max_passes=int(tp["max_passes"]),
    )


class _FoldRunner:
    """Trains and tunes every component needed by the configured methods."""

    def __init__(self, pipeline: _Pipeline, fold: tuple[str, list[str], list[str]]):
        self.pipe = pipeline
        self.config = pipeline.config
        self.test_query, self.train_queries, self.val_queries = fold
        self.models = FoldModels(self.test_query, self.train_queries, self.val_queries)
        self._c_ltr_cache: dict[str, RankedList] = {}
        self._psg_ranking_cache: dict[str, RankedList] = {}

    # -- graded example assembly --

    def _doc_examples(self, query_ids: Sequence[str], mu: float) -> list[GradedExample]:
        out = []
        for qid in query_ids:
            for vec in self.pipe.normalized_doc_vectors(qid, mu):
                out.append(
                    GradedExample(qid, vec.item_id, vec, self.pipe.doc_judgments.grade(qid, vec.item_id))
                )
        return out

    def _psg_examples(self, query_ids: Sequence[str], mu: float) -> list[GradedExample]:
        # The training universe is the tuned QSF's top passages; only the
        # feature smoothing varies with the model's mu grid, matching how
        # the trained ranker is applied.
        out = []
        for qid in query_ids:
            universe = self.pipe.qsf_ranking(
                qid, self.models.qsf_mu, self.models.qsf_lambda, k=self.config.psg_cutoff
            ).ids()
            data = self.pipe.query_data(qid)
            for vec in self.pipe.normalized_psg_vectors(qid, mu, universe):
                out.append(GradedExample(qid, vec.item_id, vec, data.psg_grades[vec.item_id]))
        return out

    # -- stage 1: document ranker --

    def fit_init_ltr(self) -> None:
        best = None
        for mu in self.config.grids["mu"]:
            examples = self._doc_examples(self.train_queries, mu)
            for hyper in _trainer_grid(self.config):
                model = _train(self.config, examples, hyper)
                vals = []
                for qid in self.val_queries:
                    if self._no_candidates(qid):
                        run = RankedList(qid, ())
                    else:
                        run = score(model, self.pipe.normalized_doc_vectors(qid, mu))
                    vals.append(self.pipe.doc_metric(run))
                val_map = mean_metric(vals)
                if best is None or val_map > best[0]:
                    best = (val_map, mu, model)
        _, self.models.init_mu, self.models.init_model = best

    def _no_candidates(self, query_id: str) -> bool:
        return not self.pipe.query_data(query_id).passages_by_doc

    def c_ltr(self, query_id: str) -> RankedList:
        got = self._c_ltr_cache.get(query_id)
        if got is None:
            if self._no_candidates(query_id):
                got = RankedList(query_id, ())
            else:
                got = score(
                    self.models.init_model,
                    self.pipe.normalized_doc_vectors(query_id, self.models.init_mu),
                )
            self._c_ltr_cache[query_id] = got
        return got

    # -- stage 2: passage ranker --

    def fit_qsf(self) -> None:
        """Tune QSF's (mu, lambda) on the train split by the passage metric."""
        best = None
        for mu in self.config.grids["mu"]:
            for lam in self.config.grids["qsf_lambda"]:
                vals = []
                for qid in self.train_queries:
                    run = self.pipe.qsf_ranking(qid, mu, lam, k=self.config.psg_cutoff)
                    vals.append(self.pipe.psg_metric(run, qid))
                m = mean_metric(vals)
                if best is None or m > best[0]:
                    best = (m, mu, lam)
        _, self.models.qsf_mu, self.models.qsf_lambda = best

    def fit_psg_ltr(self) -> None:
        """Train the passage ranker; hyperparams picked on validation."""
        if self.models.qsf_lambda is None:
            self.fit_qsf()
        best = None
        for mu in self.config.grids["mu"]:
            examples = self._psg_examples(self.train_queries, mu)
            for hyper in _trainer_grid(self.config):
                model = _train(self.config, examples, hyper)
                vals = []
                for qid in self.val_queries:
                    run = self.rank_passages_ltr(qid, mu, model)
                    vals.append(self.pipe.psg_metric(run, qid))
                m = mean_metric(vals)
                if best is None or m > best[0]:
                    best = (m, mu, model)
        _, self.models.psg_mu, self.models.psg_model = best

    def rank_passages_ltr(
        self, query_id: str, mu: float, model: LinearModel, k: int | None = None
    ) -> RankedList:
        if self._no_candidates(query_id):
            return RankedList(query_id, ())
        universe = self.pipe.qsf_ranking(
            query_id, self.models.qsf_mu, self.models.qsf_lambda, k=self.config.psg_cutoff
        ).ids()
        vectors = self.pipe.normalized_psg_vectors(query_id, mu, universe)
        run = score(model, vectors)
        return run.truncated(k) if k else run

    def passage_ranking(self, query_id: str) -> RankedList:
        """G: ranking of ALL passages of the query's candidate documents."""
        got = self._psg_ranking_cache.get(query_id)
        if got is not None:
            return got
        if self._no_candidates(query_id):
            got = RankedList(query_id, ())
            self._psg_ranking_cache[query_id] = got
            return got
        if self.config.psg_ranker == "qsf":
            got = self.pipe.qsf_ranking(query_id, self.models.qsf_mu, self.models.qsf_lambda)
        else:
            vectors = self.pipe.normalized_psg_vectors(query_id, self.models.psg_mu)
            got = score(self.models.psg_model, vectors)
        self._psg_ranking_cache[query_id] = got
        return got

    # -- method execution --

    def prepare(self, methods: Sequence[str]) -> None:
        needs_init = any(m in _NEEDS_INIT_LTR for m in methods)
        needs_psg_rank = any(m in _NEEDS_PSG_RANKING for m in methods)
        needs_qsf = needs_psg_rank or "QSF" in methods or "PsgLTR" in methods
        if needs_init:
            self.fit_init_ltr()
        if needs_qsf:
            self.fit_qsf()
        if (needs_psg_rank and self.config.psg_ranker == "ltr") or "PsgLTR" in methods:
            self.fit_psg_ltr()
        for m in methods:
            self._tune_method(m)

    # method-level tuning ------------------------------------------------

    def _val_doc_map(self, ranker) -> float:
        vals = []
        for qid in self.val_queries:
            vals.append(self.pipe.doc_metric(ranker(qid)))
        return mean_metric(vals)

    def _train_doc_map(self, ranker) -> float:
        vals = []
        for qid in self.train_queries:
            vals.append(self.pipe.doc_metric(ranker(qid)))
        return mean_metric(vals)

    def _tune_method(self, method: str) -> None:
        cfg = self.config
        if method == "LM":
            return
        if method == "SDM":
            best = None
            for mu in cfg.grids["mu"]:
                for wt in cfg.grids["sdm_weights"]:
                    weights = SdmWeights(*wt)
                    m = self._train_doc_map(lambda qid: self.pipe.sdm_ranking(qid, mu, weights))
                    if best is None or m > best[0]:
                        best = (m, {"mu": mu, "weights": list(wt)})
            self.models.method_params[method] = best[1]
            return
        if method == "DocPsg":
            best = None
            for mu in cfg.grids["mu"]:
                for lam in cfg.grids["docpsg_lambda"]:
                    m = self._train_doc_map(lambda qid: self.pipe.docpsg_ranking(qid, mu, lam))
                    if best is None or m > best[0]:
                        best = (m, {"mu": mu, "lambda_max": lam})
            self.models.method_params[method] = best[1]
            return
        if method == "init-LTR":
            self.models.method_params[method] = {"mu": self.models.init_mu}
            return
        if method == "RRF":
            best = None
            for alpha in cfg.grids["alpha"]:
                for nu in cfg.grids["nu"]:
                    params = FusionParams(nu=nu, alpha=alpha)
                    m = self._val_doc_map(
                        lambda qid: rerank_rrf(self.c_ltr(qid), self.passage_ranking(qid), params)
                    )
                    if best is None or m > best[0]:
                        best = (m, {"alpha": alpha, "nu": nu})
            self.models.method_params[method] = best[1]
            return
        if method == "SMPD":
            best = None
            for nu in cfg.grids["nu"]:
                for hyper in _trainer_grid(cfg):
                    model = _train(cfg, self._smpd_examples(self.train_queries, nu), hyper)
                    m = self._val_doc_map(lambda qid: self._smpd_rank(qid, nu, model))
                    if best is None or m > best[0]:
                        best = (m, {"nu": nu}, model)
            self.models.method_params[method] = best[1]
            self.models.method_models[method] = best[2]
            return
        if method in _JPDS_WHICH or method == "JPD-2":
            best = None
            for hyper in _trainer_grid(cfg):
                model = _train(cfg, self._jpds_examples(self.train_queries, method), hyper)
                m = self._val_doc_map(lambda qid: self._jpds_rank(qid, method, model))
                if best is None or m > best[0]:
                    best = (m, dict(hyper), model)
            self.models.method_params[method] = best[1]
            self.models.method_models[method] = best[2]
            return
        if method.startswith("JPDm-"):
            agg = method.split("-", 1)[1]
            best = None
            for hyper in _trainer_grid(cfg):
                model = _train(cfg, self._jpdm_examples(self.train_queries, agg), hyper)
                m = self._val_doc_map(lambda qid: self._jpdm_rank(qid, agg, model))
                if best is None or m > best[0]:
                    best = (m, dict(hyper), model)
            self.models.method_params[method] = best[1]
            self.models.method_models[method] = best[2]
            return
        if method == "FPD":
            best = None
            for hyper in _trainer_grid(cfg):
                model = _train(cfg, self._fpd_examples(self.train_queries), hyper)
                for alpha in cfg.grids["alpha"]:
                    for nu in cfg.grids["nu"]:
                        params = FusionParams(nu=nu, alpha=alpha)
                        m = self._val_doc_map(lambda qid: self._fpd_rank(qid, model, params))
                        if best is None or m > best[0]:
                            best = (m, {"alpha": alpha, "nu": nu, **hyper}, model)
            self.models.method_params[method] = best[1]
            self.models.method_models[method] = best[2]
            return
        if method == "QSF":
            self.models.method_params[method] = {
                "mu": self.models.qsf_mu,
                "lambda": self.models.qsf_lambda,
            }
            return
        if method == "PLM":
            best = None
            for mu in cfg.grids["mu"]:
                for sigma in cfg.grids["plm_sigma"]:
                    for lam in cfg.grids["plm_lambda"]:
                        for beta in cfg.grids["plm_beta"]:
                            if lam + beta > 1.0 + 1e-9:
                                continue
                            vals = []
                            for qid in self.train_queries:
                                run = self.pipe.plm_ranking(
                                    qid, mu, sigma, lam, beta, k=cfg.psg_cutoff
                                )
                                vals.append(self.pipe.psg_metric(run, qid))
                            m = mean_metric(vals)
                            if best is None or m > best[0]:
                                best = (m, {"mu": mu, "sigma": sigma, "lambda": lam, "beta": beta})
            self.models.method_params[method] = best[1]
            return
        if method == "PsgLTR":
            self.models.method_params[method] = {"mu": self.models.psg_mu}
            return
        raise ConfigError(f"unknown method {method!r}")

    # method-specific vector builders -------------------------------------

    def _smpd_examples(self, query_ids: Sequence[str], nu: float) -> list[GradedExample]:
        out = []
        for qid in query_ids:
            for vec in self._smpd_vectors(qid, nu):
                out.append(
                    GradedExample(
                        qid, vec.item_id, vec, self.pipe.doc_judgments.grade(qid, vec.item_id)
                    )
                )
        return out

    def _smpd_vectors(self, query_id: str, nu: float) -> list[FeatureVector]:
        data = self.pipe.query_data(query_id)
        doc_list = self.c_ltr(query_id)
        psg_list = self.passage_ranking(query_id)
        raw = build_smpd_vectors(
            doc_list,
            data.doc_vectors[self.models.init_mu],
            data.passages_by_doc,
            psg_list,
            nu,
        )
        return minmax_normalize(raw)

    def _smpd_rank(self, query_id: str, nu: float, model: LinearModel) -> RankedList:
        if self._no_candidates(query_id):
            return RankedList(query_id, ())
        return score(model, self._smpd_vectors(query_id, nu))

    def _jpds_vectors(self, query_id: str, method: str) -> list[FeatureVector]:
        data = self.pipe.query_data(query_id)
        doc_list = self.c_ltr(query_id)
        psg_list = self.passage_ranking(query_id)
        mu = self.models.init_mu
        psg_mu = self._psg_feature_mu()
        self.pipe.ensure_features(query_id, psg_mu)
        raw = build_jpds_vectors(
            doc_list,
            data.doc_vectors[mu],
            data.psg_vectors[psg_mu],
            data.passages_by_doc,
            psg_list,
            which=_JPDS_WHICH.get(method, "best"),
            two_passages=(method == "JPD-2"),
            include_query_length=False,
        )
        return minmax_normalize(raw)

    def _psg_feature_mu(self) -> float:
        if self.config.psg_ranker == "ltr" and self.models.psg_mu is not None:
            return self.models.psg_mu
        return self.models.qsf_mu if self.models.qsf_mu is not None else self.models.init_mu

    def _jpds_examples(self, query_ids: Sequence[str], method: str) -> list[GradedExample]:
        out = []
        for qid in query_ids:
            for vec in self._jpds_vectors(qid, method):
                out.append(
                    GradedExample(
                        qid, vec.item_id, vec, self.pipe.doc_judgments.grade(qid, vec.item_id)
                    )
                )
        return out

    def _jpds_rank(self, query_id: str, method: str, model: LinearModel) -> RankedList:
        if self._no_candidates(query_id):
            return RankedList(query_id, ())
        return score(model, self._jpds_vectors(query_id, method))

    def _jpdm_vectors(self, query_id: str, agg: str) -> list[FeatureVector]:
        data = self.pipe.query_data(query_id)
        doc_list = self.c_ltr(query_id)
        mu = self.models.init_mu
        psg_mu = self._psg_feature_mu_for_jpdm()
        self.pipe.ensure_features(query_id, psg_mu)
        raw = build_jpdm_vectors(
            doc_list,
            data.doc_vectors[mu],
            data.psg_vectors[psg_mu],
            data.passages_by_doc,
            agg,
        )
        return minmax_normalize(raw)

    def _psg_feature_mu_for_jpdm(self) -> float:
        # JPDm is independent of the passage ranking; reuse the document
        # ranker's smoothing so no extra feature extraction is needed.
        return self.models.init_mu

    def _jpdm_examples(self, query_ids: Sequence[str], agg: str) -> list[GradedExample]:
        out = []
        for qid in query_ids:
            for vec in self._jpdm_vectors(qid, agg):
                out.append(
                    GradedExample(
                        qid, vec.item_id, vec, self.pipe.doc_judgments.grade(qid, vec.item_id)
                    )
                )
        return out

    def _jpdm_rank(self, query_id: str, agg: str, model: LinearModel) -> RankedList:
        if self._no_candidates(query_id):
            return RankedList(query_id, ())
        return score(model, self._jpdm_vectors(query_id, agg))

    def _fpd_vectors(self, query_id: str) -> list[FeatureVector]:
        from .rank import select_passage, _fallback_by_query_sim

        data = self.pipe.query_data(query_id)
        doc_list = self.c_ltr(query_id)
        psg_list = self.passage_ranking(query_id)
        psg_mu = self._psg_feature_mu()
        self.pipe.ensure_features(query_id, psg_mu)
        psg_vectors = data.psg_vectors[psg_mu]
        raw = []
        for doc_id, _ in doc_list:
            passages = data.passages_by_doc[doc_id]
            chosen = select_passage(passages, psg_list, "best")
            if chosen is None:
                chosen = _fallback_by_query_sim(passages, psg_vectors)
            base = psg_vectors[chosen.passage_id]
            raw.append(FeatureVector(base.schema, base.values, query_id, doc_id))
        return minmax_normalize(raw)

    def _fpd_examples(self, query_ids: Sequence[str]) -> list[GradedExample]:
        out = []
        for qid in query_ids:
            for vec in self._fpd_vectors(qid):
                out.append(
                    GradedExample(
                        qid, vec.item_id, vec, self.pipe.doc_judgments.grade(qid, vec.item_id)
                    )
                )
        return out

    def _fpd_rank(self, query_id: str, model: LinearModel, params: FusionParams) -> RankedList:
        if self._no_candidates(query_id):
            return RankedList(query_id, ())
        doc_list = self.c_ltr(query_id)
        model_ranking = score(model, self._fpd_vectors(query_id))
        return rerank_fpd(doc_list, model_ranking, params)

    # -- test-query execution --

    def run_method(self, method: str, query_id: str) -> RankedList:
        cfg = self.config
        params = self.models.method_params.get(method, {})
        if method == "LM":
            return self.pipe.query_data(query_id).c_init
        if method == "SDM":
            return self.pipe.sdm_ranking(query_id, params["mu"], SdmWeights(*params["weights"]))
        if method == "DocPsg":
            return self.pipe.docpsg_ranking(query_id, params["mu"], params["lambda_max"])
        if method == "init-LTR":
            return self.c_ltr(query_id)
        if method == "RRF":
            fusion = FusionParams(nu=params["nu"], alpha=params["alpha"])
            return rerank_rrf(self.c_ltr(query_id), self.passage_ranking(query_id), fusion)
        if method == "SMPD":
            return self._smpd_rank(query_id, params["nu"], self.models.method_models[method])
        if method in _JPDS_WHICH or method == "JPD-2":
            return self._jpds_rank(query_id, method, self.models.method_models[method])
        if method.startswith("JPDm-"):
            agg = method.split("-", 1)[1]
            return self._jpdm_rank(query_id, agg, self.models.method_models[method])
        if method == "FPD":
            fusion = FusionParams(nu=params["nu"], alpha=params["alpha"])
            return self._fpd_rank(query_id, self.models.method_models[method], fusion)
        if method == "QSF":
            return self.pipe.qsf_ranking(
                query_id, params["mu"], params["lambda"], k=cfg.psg_cutoff
            )
        if method == "PLM":
            return self.pipe.plm_ranking(
                query_id, params["mu"], params["sigma"], params["lambda"], params["beta"],
                k=cfg.psg_cutoff,
            )
        if method == "PsgLTR":
            return self.rank_passages_ltr(
                query_id, self.models.psg_mu, self.models.psg_model, k=cfg.psg_cutoff
            )
        raise ConfigError(f"unknown method {method!r}")


@dataclass
class ExperimentReport:
    """Aggregated metrics, per-query values, and the significance matrix."""

    methods: dict
    per_query: list[dict]
    significance: list[dict]
    folds: dict
    manifest: dict

    def to_dict(self) -> dict:
        return {
            "methods": self.methods,
            "significance": self.significance,
            "folds": self.folds,
            "manifest": self.manifest,
        }


def _prestage(pipe: _Pipeline, config: ExperimentConfig) -> None:
    """Stage per-query features up front, optionally across worker threads.

    Staging is pure per query and results land in caches keyed by query id,
    so the final output is byte-identical regardless of the worker count.
    """
    query_ids = sorted(pipe.queries)
    mus = list(config.grids["mu"])

    def stage(qid: str) -> None:
        for mu in mus:
            pipe.ensure_features(qid, mu)

    if config.workers <= 1:
        for qid in query_ids:
            stage(qid)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        list(pool.map(stage, query_ids))


def run_experiment(config: ExperimentConfig, out_dir: str | Path) -> ExperimentReport:
    """Execute the leave-one-out protocol and write all artifacts."""
    out_dir = Path(out_dir)
    pipe = _Pipeline(config)
    plan = CvPlan(tuple(sorted(pipe.queries)), seed=config.seed)
    _prestage(pipe, config)

    runs: dict[str, dict[str, RankedList]] = {m: {} for m in config.methods}
    fold_summaries = {}
    (out_dir / "models").mkdir(parents=True, exist_ok=True)
    for fold in plan.folds():
        runner = _FoldRunner(pipe, fold)
        runner.prepare(config.methods)
        test_q = fold[0]
        for method in config.methods:
            runs[method][test_q] = runner.run_method(method, test_q)
        model_dir = out_dir / "models" / test_q
        model_dir.mkdir(parents=True, exist_ok=True)
        if runner.models.init_model is not None:
            runner.models.init_model.save(model_dir / "init-ltr.json")
        if runner.models.psg_model is not None:
            runner.models.psg_model.save(model_dir / "psg-ranker.json")
        for method, model in runner.models.method_models.items():
            model.save(model_dir / f"{method}.json")
        fold_summaries[test_q] = {
            "train": runner.train_queries,
            "validation": runner.val_queries,
            "init_mu": runner.models.init_mu,
            "qsf": {"mu": runner.models.qsf_mu, "lambda": runner.models.qsf_lambda},
            "psg_mu": runner.models.psg_mu,
            "method_params": runner.models.method_params,
        }

    report = _assemble_report(config, pipe, runs, fold_summaries)
    _write_outputs(config, out_dir, runs, report)
    return report


def _per_query_metrics(
    config: ExperimentConfig, pipe: _Pipeline, method: str, run: RankedList, qid: str
) -> dict:
    row = {"query_id": qid, "method": method}
    if method in DOC_METHODS:
        row["ap"] = average_precision(run, pipe.doc_judgments, config.doc_cutoff)
        row["p10"] = precision_at(run, pipe.doc_judgments, 10)
        row["primary"] = row["ap"]
        return row
    if pipe.psg_judgments.mode == "char_focused":
        data = pipe.query_data(qid)
        got = interpolated_precision(
            run, pipe.psg_judgments, data.passage_spans, recall_points=(0.01, 0.1)
        )
        if got is None:
            row["ip_0.01"] = row["ip_0.1"] = row["maip"] = None
        else:
            ip, aip = got
            row["ip_0.01"] = ip[0.01]
            row["ip_0.1"] = ip[0.1]
            row["maip"] = aip
        row["primary"] = row["maip"]
        return row
    row["ap"] = average_precision(run, pipe.psg_judgments, config.psg_cutoff)
    row["p10"] = precision_at(run, pipe.psg_judgments, 10)
    row["primary"] = row["ap"]
    return row


def _assemble_report(config, pipe, runs, fold_summaries) -> ExperimentReport:
    per_query = []
    method_metrics = {}
    primary: dict[str, dict[str, float | None]] = {}
    for method in config.methods:
        rows = [
            _per_query_metrics(config, pipe, method, runs[method][qid], qid)
            for qid in sorted(runs[method])
        ]
        per_query.extend(rows)
        primary[method] = {r["query_id"]: r["primary"] for r in rows}
        agg = {}
        for key in rows[0]:
            if key in ("query_id", "method", "primary"):
                continue
            agg["mean_" + key] = mean_metric([r[key] for r in rows])
        method_metrics[method] = agg

    corrections = config.ttest_corrections
    if corrections is None:
        corrections = max(1, len(config.methods) - 1)
    significance = []
    for a, b in itertools.combinations(config.methods, 2):
        qids = sorted(
            q
            for q in primary[a]
            if primary[a][q] is not None and primary[b][q] is not None
        )
        entry = {"a": a, "b": b, "queries": len(qids)}
        if len(qids) >= 2:
            try:
                result = paired_ttest(
                    [primary[a][q] for q in qids],
                    [primary[b][q] for q in qids],
                    alpha=config.ttest_alpha,
                    corrections=corrections,
                )
                entry.update(t=result.t, p=result.p, significant=result.significant)
            except ValueError as exc:
                entry.update(error=str(exc))
        else:
            entry.update(error="fewer than 2 comparable queries")
        significance.append(entry)

    manifest = {
        "package_version": __version__,
        "config": config.resolved(),
        "corpus_manifest": pipe.store.manifest(),
        "resource_checksums": {
            name: _sha256(path)
            for name, path in (
                ("corpus", config.corpus),
                ("topics", config.topics),
                ("doc_qrels", config.doc_qrels),
                ("psg_qrels", config.psg_qrels),
                ("embeddings", config.embeddings),
                ("synonyms", config.synonyms),
                ("entities", config.entities),
                ("esa_corpus", config.esa_corpus),
            )
            if path is not None
        },
        "resource_degradations": pipe.resources.degradations(),
        "queries": sorted(pipe.queries),
        "ttest_corrections": corrections,
    }
    return ExperimentReport(
        methods=method_metrics,
        per_query=per_query,
        significance=significance,
        folds=fold_summaries,
        manifest=manifest,
    )


def _write_outputs(config, out_dir: Path, runs, report: ExperimentReport) -> None:
    runs_dir = out_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    for method in config.methods:
        ordered = [runs[method][qid] for qid in sorted(runs[method])]
        write_trec_run(runs_dir / f"{method}.trec", ordered, tag=method)
    (out_dir / "config.resolved.json").write_text(
        json.dumps(config.resolved(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    (out_dir / "report.json").write_text(
        json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    with (out_dir / "per_query.jsonl").open("w", encoding="utf-8") as f:
        for row in report.per_query:
            f.write(json.dumps(row, sort_keys=True) + "\n")
