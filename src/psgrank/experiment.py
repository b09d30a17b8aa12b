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

import copy
import hashlib
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

from . import __version__
from .corpus import CORPUS_FORMATS, Query, ingest_corpus, load_topics, read_json_file
from .evaluation import (
    QRELS_LOADERS,
    CvPlan,
    average_precision,
    average_precisions,
    check_ttest_params,
    interpolated_precision,
    load_doc_qrels,
    mean_metric,
    paired_ttest,
    query_metrics,
)
from .features import (
    DOC_SCHEMA,
    PSG_SCHEMA,
    FeatureMatrix,
    PassageFeatureExtractor,
    SemanticResources,
    doc_features,
    doc_priors,
    load_embeddings,
    load_entities,
    load_synonyms,
    minmax_normalize,
)
from .index import LmParams, SdmWeights, build_index, retrieve_lm
from .ltr import (
    PARAM_CHECKS, LinearModel, TrainingSet, check_pairwise_params, passage_grades, score,
    train_coordinate_ascent, train_pairwise,
)
from .passage import (
    SEGMENTATION_MODES, Passage, SegmentationParams, parse_passage_id, passage_spans, segment,
)
from .rank import (
    FusionParams,
    PassageRanks,
    RankedList,
    best_positional_similarities,
    build_fpd_vectors,
    build_jpdm_vectors,
    build_jpds_vectors,
    build_smpd_vectors,
    check_sigma,
    check_weight,
    docpsg_from_sims,
    fusion_rows,
    plm_from_sims,
    plm_weights_feasible,
    qsf_from_sims,
    rerank_fpd,
    rerank_rrf,
    write_trec_run,
)

TRAINERS = ("pairwise_hinge", "coordinate_ascent")


@dataclass(frozen=True)
class _Method:
    """One method: how it ranks a query, what it needs, how it is tuned.

    A grid is a tuple of (parameter, config grid name) axes; every
    combination is tried, the last axis fastest, and the first point with
    the strictly best mean metric wins. A learned method trains one model
    per vector-grid point and trainer setting, then walks ``grid``. A
    fusion (RRF, FPD) has each query's metric at every (alpha, nu) point of
    ``grid`` computed at once, as rows of one array; the others run and
    evaluate point by point. Functions receive the fold runner and find
    every psgrank function through this module's globals when called.
    """

    kind: str  # "doc" or "psg": the judgments it is evaluated and tuned by
    # (runner, query_id, params) -> run; for a learned method,
    # (runner, query_id, params, model ranking) -> run, or None for the model's ranking.
    rank: Callable | None = None
    # The fold stages it reads, tuned before it: "init-LTR", "QSF", or
    # "passages", the configured passage ranking (_FoldRunner.stage).
    reads: tuple = ()
    # (runner, query_id, vector-grid point) -> raw FeatureMatrix; learned
    vectors: Callable | None = None
    vector_grid: tuple = ()
    grid: tuple = ()
    # A fusion's second ranking, the one ``rank`` fuses with: (runner,
    # query_id, model ranking or None) -> r' of each c_ltr document, 0 for none.
    fuse_with: Callable | None = None
    feasible: Callable | None = None  # params -> False for a grid point to skip
    hyper_in_params: bool = True  # report the trainer setting with the tuned params
    features: bool = True  # reads feature vectors, so ablating a feature can move it

    @property
    def fold_free(self) -> bool:
        """Ranks from judgment-free pipeline data alone, so a query's run at
        one grid point is the same in every fold. Its grid is picked on the
        train queries; any other method's on the validation queries."""
        return not (self.vectors or self.reads)

    @property
    def shares_matrices(self) -> bool:
        """A learned method whose stages are all fold-free ("passages" may be
        trained) shares its min-maxed matrices across folds, keyed by the
        tuned parameters of ``reads``."""
        stages = [_METHODS.get(s) for s in self.reads]  # None for "passages"
        return bool(self.vectors) and all(r and r.fold_free for r in stages)


def _fusion(p: dict) -> FusionParams:
    return FusionParams(nu=p["nu"], alpha=p["alpha"])


def _sdm(run, query_id: str, p: dict) -> RankedList:
    matrix = run.pipe.doc_vectors(query_id, p["mu"])
    w = SdmWeights(*p["weights"])
    kept = matrix.schema.features
    cols = [kept.index(f) if f in kept else None for f in DOC_SCHEMA.features[:3]]
    scores = {}
    for d, row in zip(matrix.item_ids, matrix.values.tolist()):
        f_t, f_o, f_u = (0.0 if c is None else row[c] for c in cols)
        scores[d] = w.w_unigram * f_t + w.w_ordered * f_o + w.w_unordered * f_u
    return RankedList.from_scores(query_id, scores)


def _docpsg(run, query_id: str, p: dict) -> RankedList:
    pipe = run.pipe
    return docpsg_from_sims(
        query_id, *pipe.sims(query_id, p["mu"]), pipe.query_data(query_id).passages_by_doc,
        pipe.index.doc_lengths, p["lambda_max"],
    )


def _plm(run, query_id: str, p: dict) -> RankedList:
    pipe = run.pipe
    return plm_from_sims(
        query_id, *pipe.sims(query_id, p["mu"]),
        pipe.positional_sims(query_id, p["mu"], p["sigma"]),
        pipe.query_data(query_id).passages_by_doc, p["lambda"], p["beta"], k=run.config.psg_cutoff,
    )


def _vectors_for_doc_ltr(run, query_id: str, p: dict) -> FeatureMatrix:
    return run.pipe.doc_vectors(query_id, p["mu"])


def _vectors_for_psg_ltr(run, query_id: str, p: dict) -> FeatureMatrix:
    # The passage ranker sees the tuned QSF's top passages; only the
    # feature smoothing varies with the model's mu grid.
    qsf = run.params["QSF"]
    universe = run.pipe.qsf(query_id, qsf["mu"], qsf["lambda"], k=run.config.psg_cutoff).ids()
    return run.pipe.psg_vectors(query_id, p["mu"]).take(universe)


def _vectors_for_smpd(run, query_id: str, p: dict) -> FeatureMatrix:
    pipe = run.pipe
    return build_smpd_vectors(
        run.c_ltr(query_id), pipe.doc_vectors(query_id, run.params["init-LTR"]["mu"]),
        pipe.query_data(query_id).passages_by_doc, run.passage_ranking(query_id), p["nu"],
    )


def _jpds(which: str, two_passages: bool = False) -> _Method:
    def vectors(run, query_id, p):
        pipe = run.pipe
        return build_jpds_vectors(
            run.c_ltr(query_id), pipe.doc_vectors(query_id, run.params["init-LTR"]["mu"]),
            pipe.psg_vectors(query_id, run.psg_feature_mu()), run.passage_ranks(query_id),
            which=which, two_passages=two_passages,
        )

    return _Method("doc", reads=("init-LTR", "passages"), vectors=vectors)


def _jpdm(agg: str) -> _Method:
    # JPDm is independent of the passage ranking; its passage features use
    # the document ranker's smoothing, so no extra extraction is needed.
    def vectors(run, query_id, p):
        pipe = run.pipe
        mu = run.params["init-LTR"]["mu"]
        return build_jpdm_vectors(
            run.c_ltr(query_id), pipe.doc_vectors(query_id, mu), pipe.psg_vectors(query_id, mu),
            pipe.query_data(query_id).passages_by_doc, agg,
        )

    return _Method("doc", reads=("init-LTR",), vectors=vectors)


def _vectors_for_fpd(run, query_id: str, p: dict) -> FeatureMatrix:
    return build_fpd_vectors(
        run.c_ltr(query_id), run.pipe.psg_vectors(query_id, run.psg_feature_mu()),
        run.passage_ranks(query_id),
    )


_METHODS = {
    "LM": _Method("doc", rank=lambda run, q, p: run.pipe.query_data(q).c_init, features=False),
    "SDM": _Method("doc", rank=_sdm, grid=(("mu", "mu"), ("weights", "sdm_weights"))),
    "DocPsg": _Method(
        "doc", rank=_docpsg, grid=(("mu", "mu"), ("lambda_max", "docpsg_lambda")), features=False
    ),
    "init-LTR": _Method(
        "doc", vectors=_vectors_for_doc_ltr, vector_grid=(("mu", "mu"),), hyper_in_params=False,
    ),
    "RRF": _Method(
        "doc", reads=("init-LTR", "passages"), grid=(("alpha", "alpha"), ("nu", "nu")),
        rank=lambda run, q, p: rerank_rrf(run.c_ltr(q), run.passage_ranking(q), _fusion(p)),
        fuse_with=lambda run, q, ranking: [
            run.passage_ranking(q).best_passage_ranks().get(d, 0) for d in run.c_ltr(q).ids()
        ],
    ),
    "SMPD": _Method(
        "doc", reads=("init-LTR", "passages"), vectors=_vectors_for_smpd,
        vector_grid=(("nu", "nu"),), hyper_in_params=False,
    ),
    "JPDs": _jpds("best"),
    "JPDs-second": _jpds("second"),
    "JPDs-third": _jpds("third"),
    "JPDs-lowest": _jpds("lowest"),
    "JPD-2": _jpds("best", two_passages=True),
    "JPDm-avg": _jpdm("avg"),
    "JPDm-max": _jpdm("max"),
    "JPDm-min": _jpdm("min"),
    "FPD": _Method(
        "doc", reads=("init-LTR", "passages"), vectors=_vectors_for_fpd,
        grid=(("alpha", "alpha"), ("nu", "nu")),
        rank=lambda run, q, p, ranking: rerank_fpd(run.c_ltr(q), ranking, _fusion(p)),
        fuse_with=lambda run, q, ranking: [ranking.ranks().get(d, 0) for d in run.c_ltr(q).ids()],
    ),
    "QSF": _Method(
        "psg", features=False, grid=(("mu", "mu"), ("lambda", "qsf_lambda")),
        rank=lambda run, q, p: run.pipe.qsf(q, p["mu"], p["lambda"], k=run.config.psg_cutoff),
    ),
    "PLM": _Method(
        "psg", rank=_plm, features=False,
        grid=(("mu", "mu"), ("sigma", "plm_sigma"), ("lambda", "plm_lambda"), ("beta", "plm_beta")),
        feasible=lambda p: plm_weights_feasible(p["lambda"], p["beta"]),
    ),
    "PsgLTR": _Method(
        "psg", reads=("QSF",), vectors=_vectors_for_psg_ltr, vector_grid=(("mu", "mu"),),
        hyper_in_params=False,
    ),
}
ALL_METHODS = tuple(_METHODS)
DOC_METHODS = tuple(m for m, r in _METHODS.items() if r.kind == "doc")
FEATURE_FREE_METHODS = tuple(m for m, r in _METHODS.items() if not r.features)


def _grid_points(config: "ExperimentConfig", axes: tuple) -> Iterator[dict]:
    names = [name for name, _ in axes]
    for values in itertools.product(*(config.grids[grid] for _, grid in axes)):
        # Sequence points (SDM weight triples) are reported as fresh lists.
        yield dict(zip(names, (list(v) if isinstance(v, (list, tuple)) else v for v in values)))


def _frozen(params: Mapping) -> tuple:
    """Grid parameters as a hashable key; SDM weight lists become tuples."""
    return tuple((k, tuple(v) if isinstance(v, list) else v) for k, v in sorted(params.items()))


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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# What a scalar kind's value must be, and the test for it.
_KINDS = {
    "path": ("a path", lambda v: isinstance(v, (str, Path))),
    "int": ("an integer", _is_int),
    "number": ("a number", _is_number),
    "mapping": ("a JSON object", lambda v: isinstance(v, dict)),
}


@dataclass(frozen=True)
class ConfigField:
    """One experiment config field: its kind, default and rule.

    ``kind`` is path, int, number, choice, list or mapping; a field whose
    default is None may also be null, and a path must name a file. The rule
    is an int's least value, a choice's allowed values, a check that raises
    ValueError (the consumer's own where it has one), or, for a list or
    mapping, a function that returns every problem with the whole value.
    """

    name: str
    kind: str
    default: object = None
    rule: object = None
    override: bool = False  # `psgrank run` may set it by a flag
    load: Callable | None = None  # (path, config) -> the resource a run reads

    def problems(self, value) -> list[str]:
        """Every problem with ``value`` as this field's setting."""
        name, rule = self.name, self.rule
        if self.kind == "list":
            return rule(value)
        if value is None and self.default is None:
            return []
        if self.kind == "choice":
            allowed = ", ".join(rule)
            return [] if value in rule else [f"unknown {name} {value!r}; allowed: {allowed}"]
        noun, is_kind = _KINDS[self.kind]
        if not is_kind(value):
            return [f"{name} must be {noun}, got {value!r}"]
        if self.kind == "mapping":
            return rule(value)
        if self.kind == "path":
            return [] if Path(value).is_file() else [f"{name} is not an existing file: {value}"]
        if _is_int(rule):
            return [] if value >= rule else [f"{name} must be >= {rule}, got {value}"]
        try:
            rule(value)
        except ValueError as exc:
            return [f"{name}: {exc}"]
        return []


def _string_entries(name: str, value, noun: str) -> tuple[list[str], list[str]]:
    """Problems with a list of names, and its entries that are names."""
    if not isinstance(value, (list, tuple)):
        return [f"{name} must be a list of {noun}s, got {value!r}"], []
    problems = [f"{name} entry {v!r} must be a {noun}" for v in value if not isinstance(v, str)]
    return problems, [v for v in value if isinstance(v, str)]


def _method_problems(methods) -> list[str]:
    problems, names = _string_entries("methods", methods, "method name")
    allowed = ", ".join(ALL_METHODS)
    problems += [f"unknown method {m!r}; allowed: {allowed}" for m in names if m not in _METHODS]
    if not problems and not names:
        problems.append("no methods configured")
    if len(set(names)) != len(names):
        problems.append("duplicate methods configured")
    return problems


def _exclusion_problems(exclusions) -> list[str]:
    problems, names = _string_entries("exclusions", exclusions, "feature name")
    return problems + _parse_exclusions(names)[2]


def _trainer_param_problems(trainer_params: dict) -> list[str]:
    problems = []
    known_params = _default_trainer_params()
    for name in sorted(set(trainer_params) - set(known_params)):
        problems.append(f"unknown trainer_params {name!r}; known: {', '.join(known_params)}")
    for name, default in known_params.items():
        # Counts must be integers and rates numbers, like their defaults, and
        # each must pass the check of the trainer it belongs to.
        value = trainer_params.get(name, default)
        if _is_int(default) and not _is_int(value):
            problems.append(f"trainer_params {name!r} must be an integer, got {value!r}")
        elif not _is_number(value):
            problems.append(f"trainer_params {name!r} must be a number, got {value!r}")
        else:
            try:
                PARAM_CHECKS[name](**{name: value})
            except ValueError as exc:
                problems.append(f"trainer_params {name!r}: {exc}")
    return problems


def _grid_problems(grids: dict) -> list[str]:
    problems = []
    known_grids = _default_grids()
    for name in sorted(set(grids) - set(known_grids)):
        problems.append(f"unknown grid {name!r}; known: {', '.join(known_grids)}")
    usable = {}
    for name in known_grids:
        points = grids.get(name)
        if not isinstance(points, (list, tuple)):
            problems.append(f"grid {name!r} must be a list, got {points!r}")
            continue
        if not points:
            problems.append(f"grid {name!r} is empty")
        usable[name] = []
        for point in points:
            problem = _point_problem(name, point)
            if problem:
                problems.append(f"grid {name!r} point {point!r}: {problem}")
            else:
                usable[name].append(point)
    lams, betas = usable.get("plm_lambda"), usable.get("plm_beta")
    if lams and betas and not any(plm_weights_feasible(a, b) for a in lams for b in betas):
        problems.append("no (plm_lambda, plm_beta) pair has lambda + beta <= 1")
    return problems


# The check each grid's consumer runs on one point; it raises ValueError.
_GRID_CHECKS = {
    "mu": LmParams,
    "svm_c": lambda v: check_pairwise_params(c=v),
    "alpha": lambda v: FusionParams(alpha=v),
    "nu": lambda v: FusionParams(nu=v),
    "qsf_lambda": lambda v: check_weight("lambda", v),
    "docpsg_lambda": lambda v: check_weight("lambda_max", v),
    "plm_lambda": lambda v: check_weight("lambda", v),
    "plm_beta": lambda v: check_weight("beta", v),
    "plm_sigma": check_sigma,
    "sdm_weights": lambda v: SdmWeights(*v),
}


def _point_problem(grid: str, point) -> str | None:
    """Why ``point`` cannot be used in ``grid``, or None if it can."""
    if grid == "sdm_weights":
        if not isinstance(point, (list, tuple)) or len(point) != 3 or not all(map(_is_number, point)):
            return "must be 3 numbers"
    elif not _is_number(point):
        return "must be a number"
    check = _GRID_CHECKS.get(grid)
    try:
        if check:
            check(point)
    except ValueError as exc:
        return str(exc)
    return None


# Every config field, in the order validate() reports problems. Loaders run
# in this order too; corpus and topics are read with the run's tokenizer.
CONFIG_FIELDS = (
    ConfigField("corpus", "path", "corpus.jsonl"),
    ConfigField("topics", "path", "topics.tsv"),
    ConfigField("methods", "list", [], _method_problems),
    ConfigField("corpus_format", "choice", "jsonl", CORPUS_FORMATS),
    ConfigField("doc_qrels", "path", load=lambda path, config: load_doc_qrels(path)),
    ConfigField(
        "psg_qrels", "path",
        load=lambda path, config: QRELS_LOADERS[config.psg_qrels_mode](path),
    ),
    ConfigField("psg_qrels_mode", "choice", "char_focused", ("char_focused", "sentence_binary")),
    ConfigField("embeddings", "path", load=lambda path, config: load_embeddings(path)),
    ConfigField("synonyms", "path", load=lambda path, config: load_synonyms(path)),
    ConfigField("entities", "path", load=lambda path, config: load_entities(path)),
    ConfigField(
        "esa_corpus", "path",
        load=lambda path, config: build_index(ingest_corpus(path, config.corpus_format)),
    ),
    ConfigField("window_len", "int", 300, 1, override=True),
    ConfigField("segmentation_mode", "choice", "fixed", SEGMENTATION_MODES),
    ConfigField("trainer", "choice", "pairwise_hinge", TRAINERS, override=True),
    ConfigField("psg_ranker", "choice", "ltr", ("ltr", "qsf"), override=True),
    ConfigField("seed", "int", 0, 0, override=True),
    ConfigField("init_mu", "number", 1000.0, LmParams),
    ConfigField("doc_cutoff", "int", 1000, 1),
    ConfigField("psg_cutoff", "int", 1500, 1),
    ConfigField("grids", "mapping", _default_grids(), _grid_problems),
    ConfigField("trainer_params", "mapping", _default_trainer_params(), _trainer_param_problems),
    ConfigField("exclusions", "list", [], _exclusion_problems),
    ConfigField("ttest_alpha", "number", 0.05, lambda v: check_ttest_params(alpha=v)),
    # null: one correction per other configured method.
    ConfigField("ttest_corrections", "int", None, lambda v: check_ttest_params(corrections=v)),
    ConfigField("sentence_universe", "choice", "retrieved", ("retrieved", "judged")),
)


class ExperimentConfig:
    """Configuration for one experiment run: an attribute per ``CONFIG_FIELDS``
    entry, holding its default until set."""

    def __init__(self):
        for f in CONFIG_FIELDS:
            setattr(self, f.name, copy.deepcopy(f.default))

    @classmethod
    def from_dict(cls, data: dict, base_dir: Path | None = None) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {data!r}")
        data = dict(data)
        if "method" in data and "methods" not in data:
            m = data.pop("method")
            data["methods"] = [m] if isinstance(m, str) else m
        unknown = set(data) - {f.name for f in CONFIG_FIELDS}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        base = Path(base_dir) if base_dir else Path(".")
        config = cls()
        # Paths resolve against base_dir, and objects merge over the default;
        # a value of the wrong kind is kept as given, for validate() to report.
        for f in CONFIG_FIELDS:
            value = data.get(f.name, getattr(config, f.name))
            if f.kind == "path" and isinstance(value, (str, Path)):
                value = base / value
            elif f.kind == "mapping" and isinstance(value, dict):
                value = {**getattr(config, f.name), **value}
            setattr(config, f.name, value)
        return config

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        return cls.from_dict(read_json_file(path, ConfigError), base_dir=path.parent)

    def _records(self) -> list[_Method]:
        methods = self.methods if isinstance(self.methods, (list, tuple)) else ()
        return [_METHODS[m] for m in methods if isinstance(m, str) and m in _METHODS]

    def needs_doc_qrels(self) -> bool:
        return any(r.kind == "doc" for r in self._records())

    def needs_psg_qrels(self) -> bool:
        # Any passage ranking (learned or QSF) is tuned by a passage metric.
        return any(r.kind == "psg" or "passages" in r.reads for r in self._records())

    def validate(self) -> list[str]:
        """Collect every problem; empty list means the config is usable."""
        problems = [p for f in CONFIG_FIELDS for p in f.problems(getattr(self, f.name))]
        needs = {"doc_qrels": self.needs_doc_qrels(), "psg_qrels": self.needs_psg_qrels()}
        for name, needed in needs.items():
            if needed and getattr(self, name) is None:
                problems.append(f"configured methods need {name}")
        return problems

    def resolved(self) -> dict:
        values = {f.name: getattr(self, f.name) for f in CONFIG_FIELDS}
        return {k: str(v) if isinstance(v, Path) else v for k, v in values.items()}


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


@dataclass(frozen=True)
class _QueryData:
    """A query's judgment-free staged data, shared across folds."""

    query: Query
    c_init: RankedList
    passages_by_doc: dict[str, list[Passage]]
    passage_spans: dict[str, tuple[str, int, int]]
    psg_grades: dict[str, int]


def _memoized(memo: dict, key: tuple, compute: Callable[[], object]):
    """The value kept in ``memo`` under ``key``, computed on first request."""
    if key not in memo:
        memo[key] = compute()
    return memo[key]


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
        loaded = {
            f.name: f.load(value, config)
            for f in CONFIG_FIELDS
            if f.load and (value := getattr(config, f.name)) is not None
        }
        self.doc_judgments = loaded.get("doc_qrels")
        self.psg_judgments = loaded.get("psg_qrels")
        self.resources = SemanticResources(
            loaded.get("embeddings"), loaded.get("synonyms"), loaded.get("entities"),
            loaded.get("esa_corpus", self.index),
        )

        doc_excl, psg_excl, _ = _parse_exclusions(config.exclusions)
        self.doc_schema = DOC_SCHEMA.without(doc_excl) if doc_excl else DOC_SCHEMA
        self.psg_schema = PSG_SCHEMA.without(psg_excl) if psg_excl else PSG_SCHEMA

        all_queries = load_topics(config.topics, self.store.tokenizer)
        self.queries = {q.query_id: q for q in self._filter_queries(all_queries)}
        if len(self.queries) < 2:
            raise ConfigError(
                "need at least 2 judged queries for leave-one-out cross validation"
            )
        self._esa_cache: dict = {}
        # Work whose inputs do not depend on the fold, kept for the whole run
        # under a key of its kind and everything else it reads: segmentation,
        # query data, extractors, feature matrices, positional similarities,
        # QSF runs, fold-free methods' per-query tuning metrics and shared
        # normalized matrices (see _FoldRunner).
        self._memo: dict = {}

    def memo(self, key: tuple, compute: Callable[[], object]):
        """The value kept under ``key``, computed on first request."""
        return _memoized(self._memo, key, compute)

    def _filter_queries(self, queries: Sequence[Query]) -> list[Query]:
        """Drop queries with no relevant items in the required qrels."""
        required = [
            judgments for judgments, needed in (
                (self.doc_judgments, self.config.needs_doc_qrels()),
                (self.psg_judgments, self.config.needs_psg_qrels()),
            ) if needed
        ]
        return [q for q in queries if all(j.has_judgments(q.query_id) for j in required)]

    # -- per-query staging --

    def query_data(self, query_id: str) -> _QueryData:
        return self.memo(("query", query_id), lambda: self._stage_query(self.queries[query_id]))

    def _candidate_doc_ids(self, query: Query, c_init: RankedList) -> list[str]:
        if (
            self.config.segmentation_mode == "sentence"
            and self.config.sentence_universe == "judged"
            and self.psg_judgments is not None
        ):
            judged = {
                parse_passage_id(pid)[0]
                for pid in self.psg_judgments.grades.get(query.query_id, {})
            }
            return sorted(d for d in judged if d in self.store.by_id)
        return c_init.ids()

    def _stage_query(self, query: Query) -> _QueryData:
        cfg = self.config
        c_init = retrieve_lm(query, self.index, LmParams(cfg.init_mu), cfg.doc_cutoff)
        doc_ids = self._candidate_doc_ids(query, c_init)
        passages_by_doc = {
            d: self.memo(("segment", d), lambda d=d: segment(self.store.get(d), self.seg_params))
            for d in doc_ids
        }
        return _QueryData(
            query=query,
            c_init=c_init,
            passages_by_doc=passages_by_doc,
            passage_spans=passage_spans(p for plist in passages_by_doc.values() for p in plist),
            psg_grades=passage_grades(self.psg_judgments, query.query_id, passages_by_doc),
        )

    def _extractor(self, query_id: str, mu: float) -> PassageFeatureExtractor:
        def compute():
            data = self.query_data(query_id)
            return PassageFeatureExtractor(
                data.query, self.store, self.index, sorted(data.passages_by_doc),
                data.passages_by_doc, self.resources, LmParams(mu), esa_cache=self._esa_cache,
            )

        return self.memo(("extractor", query_id, mu), compute)

    def positional_sims(self, query_id: str, mu: float, sigma: float) -> dict[str, float]:
        def compute():
            data = self.query_data(query_id)
            return best_positional_similarities(
                data.query, self.store, self.index, sorted(data.passages_by_doc),
                data.passages_by_doc, LmParams(mu), sigma,
            )

        return self.memo(("positional_sims", query_id, mu, sigma), compute)

    # -- ranking building blocks --

    def sims(self, query_id: str, mu: float) -> tuple[dict[str, float], dict[str, float]]:
        """The query's document and passage similarities at ``mu`` (read-only)."""
        extractor = self._extractor(query_id, mu)
        return extractor.doc_sims, extractor.psg_sims

    def _priors(self, doc_ids: Sequence[str]) -> list[tuple[float, float, float]]:
        """Each document's SW1/SW2/Ent priors, kept per document; the missing in one pass."""
        missing = [d for d in doc_ids if ("priors", d) not in self._memo]
        docs = [self.store.get(d) for d in missing]
        for d, priors in zip(missing, doc_priors(docs, self.store.tokenizer.stopwords)):
            self._memo[("priors", d)] = priors
        return [self._memo[("priors", d)] for d in doc_ids]

    def doc_vectors(self, query_id: str, mu: float) -> FeatureMatrix:
        """The query's document features at ``mu``, in document id order."""
        def compute():
            data = self.query_data(query_id)
            params, stopwords = LmParams(mu), self.store.tokenizer.stopwords
            doc_ids = sorted(data.passages_by_doc)
            rows = [
                doc_features(
                    data.query, self.store.get(d), self.index, params, stopwords, priors=priors,
                )
                for d, priors in zip(doc_ids, self._priors(doc_ids))
            ]
            return FeatureMatrix(DOC_SCHEMA, query_id, doc_ids, rows).columns(self.doc_schema)

        return self.memo(("doc_vectors", query_id, mu), compute)

    def psg_vectors(self, query_id: str, mu: float) -> FeatureMatrix:
        """The query's passage features at ``mu``, in passage order."""
        return self.memo(
            ("psg_vectors", query_id, mu),
            lambda: self._extractor(query_id, mu).matrix(self.psg_schema),
        )

    def qsf(self, query_id: str, mu: float, lam: float, k: int | None = None) -> RankedList:
        return self.memo(
            ("qsf", query_id, mu, lam, k),
            lambda: qsf_from_sims(
                query_id, *self.sims(query_id, mu), self.query_data(query_id).passages_by_doc,
                lam, k,
            ),
        )

    # -- metric helpers --

    def doc_metric(self, run: RankedList) -> float | None:
        return average_precision(run, self.doc_judgments, self.config.doc_cutoff)

    def grades(self, kind: str, query_id: str) -> Mapping[str, int]:
        """The query's document or passage grades by item id; an item
        missing from them has grade 0."""
        if kind == "doc":
            return self.doc_judgments.grades.get(query_id, {})
        return self.query_data(query_id).psg_grades

    def psg_metric(self, run: RankedList) -> float | None:
        if self.psg_judgments.mode == "char_focused":
            data = self.query_data(run.query_id)
            got = interpolated_precision(
                run, self.psg_judgments, data.passage_spans, recall_points=()
            )
            return None if got is None else got[1]
        return average_precision(run, self.psg_judgments, self.config.psg_cutoff)


# The fold stages' models keep their own file names.
_MODEL_FILES = {"init-LTR": "init-ltr.json", "PsgLTR": "psg-ranker.json"}


def _trainer_grid(config: ExperimentConfig) -> list[dict]:
    if config.trainer == "pairwise_hinge":
        return [{"c": c} for c in config.grids["svm_c"]]
    return [{}]


def _train(config: ExperimentConfig, data: TrainingSet, hyper: dict) -> LinearModel:
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
    """Trains and tunes every component needed by the configured methods.

    Each method is tuned after the stages it reads (the document ranker
    init-LTR, QSF and the passage ranking), depth first, then by its own
    grid walk.
    """

    def __init__(self, pipeline: _Pipeline, fold: tuple[str, list[str], list[str]]):
        self.pipe = pipeline
        self.config = pipeline.config
        self.test_query, self.train_queries, self.val_queries = fold
        self.params: dict[str, dict] = {}  # tuned parameters by method, stages included
        self.models: dict[str, LinearModel] = {}  # trained models by method
        self._memo: dict = {}  # the fold's tuned runs and passage rankings

    def _no_candidates(self, query_id: str) -> bool:
        return not self.pipe.query_data(query_id).passages_by_doc

    def stage(self, name: str) -> str:
        """The method a read stage names: "passages" is the configured passage
        ranking, QSF or the learned PsgLTR."""
        if name != "passages":
            return name
        return "QSF" if self.config.psg_ranker == "qsf" else "PsgLTR"

    def c_ltr(self, query_id: str) -> RankedList:
        """The tuned document LTR ranking of the query's candidates."""
        return self.run_method("init-LTR", query_id)

    def passage_ranking(self, query_id: str) -> RankedList:
        """G: ranking of ALL passages of the query's candidate documents."""
        def compute():
            if self._no_candidates(query_id):
                return RankedList(query_id, ())
            stage = self.stage("passages")
            p = self.params[stage]
            if stage == "QSF":
                return self.pipe.qsf(query_id, p["mu"], p["lambda"])
            matrix = self.pipe.memo(
                ("passages", query_id, p["mu"]),
                lambda: minmax_normalize(self.pipe.psg_vectors(query_id, p["mu"])),
            )
            return score(self.models[stage], matrix)

        return _memoized(self._memo, ("passages", query_id), compute)

    def passage_ranks(self, query_id: str) -> PassageRanks:
        """The passage ranking G as integer ranks of the candidates' passages."""
        return _memoized(
            self._memo, ("passage_ranks", query_id),
            lambda: PassageRanks(
                self.pipe.query_data(query_id).passages_by_doc, self.passage_ranking(query_id)
            ),
        )

    def psg_feature_mu(self) -> float:
        """The smoothing of the passage features joined to document vectors."""
        return self.params[self.stage("passages")]["mu"]

    def prepare(self, methods: Sequence[str]) -> None:
        """Tunes each method with a grid after the stages it reads, depth first."""
        for name in methods:
            m = self.stage(name)
            rec = _METHODS[m]
            if m in self.params or not (rec.grid or rec.vectors):
                continue
            self.prepare(rec.reads)
            self.params[m], model = self._walk(m)
            if model is not None:
                self.models[m] = model

    def _walk(self, method: str) -> tuple[dict, LinearModel | None]:
        """The first grid point (and model) with the strictly best mean metric."""
        rec = _METHODS[method]
        cfg = self.config
        queries = self.train_queries if rec.fold_free else self.val_queries
        rpoints = [p for p in _grid_points(cfg, rec.grid) if not rec.feasible or rec.feasible(p)]
        best = model = None
        rankings = {}
        for vpoint in _grid_points(cfg, rec.vector_grid):
            if rec.vectors:
                training = self._training_set(rec, vpoint)
            for hyper in _trainer_grid(cfg) if rec.vectors else [{}]:
                if rec.vectors:
                    model = _train(cfg, training, hyper)
                    # The vectors depend on the vector-grid point only, so the
                    # model ranks each query once for the whole grid.
                    rankings = {q: self._model_ranking(rec, q, vpoint, model) for q in queries}
                points = [
                    {**vpoint, **rpoint, **(hyper if rec.hyper_in_params else {})}
                    for rpoint in rpoints
                ]
                values = [self._grid_metrics(method, q, points, rankings.get(q)) for q in queries]
                for i, params in enumerate(points):
                    m = mean_metric([v[i] for v in values])
                    if best is None or m > best[0]:
                        best = (m, params, model)
        return best[1], best[2]

    def _training_set(self, rec: _Method, vpoint: dict) -> TrainingSet:
        """The train queries' min-maxed matrices at ``vpoint``, graded from
        each query's grades, read once per matrix."""
        examples = []
        for qid in self.train_queries:
            matrix, grades = self._normalized(rec, qid, vpoint), self.pipe.grades(rec.kind, qid)
            examples.append((matrix, [grades.get(i, 0) for i in matrix.item_ids]))
        return TrainingSet(examples)

    def _grid_metrics(
        self, method: str, query_id: str, points: list[dict], ranking: RankedList | None
    ) -> list[float | None]:
        """The query's metric at every grid point: a fusion's as one array
        row per point, any other method's point by point."""
        rec = _METHODS[method]
        if rec.fuse_with:
            doc_list = self.c_ltr(query_id)
            _, orders = fusion_rows(
                doc_list, rec.fuse_with(self, query_id, ranking),
                [p["alpha"] for p in points], [p["nu"] for p in points],
            )
            return average_precisions(
                query_id, doc_list.ids(), orders, self.pipe.doc_judgments, self.config.doc_cutoff
            )
        metric = self.pipe.doc_metric if rec.kind == "doc" else self.pipe.psg_metric
        if rec.fold_free:
            # A fold-free run is the same in every fold: its metric is kept
            # per query for the whole run.
            return [
                self.pipe.memo(
                    ("metric", method, _frozen(p), query_id),
                    lambda p=p: metric(self._run(rec, query_id, p, None)),
                )
                for p in points
            ]
        return [metric(self._run(rec, query_id, p, ranking)) for p in points]

    def run_method(self, method: str, query_id: str) -> RankedList:
        """The method's tuned run for one query (cached)."""
        def compute():
            rec = _METHODS[method]
            params = self.params.get(method, {})
            ranking = (
                self._model_ranking(rec, query_id, params, self.models[method])
                if rec.vectors
                else None
            )
            return self._run(rec, query_id, params, ranking)

        return _memoized(self._memo, ("run", method, query_id), compute)

    def _model_ranking(
        self, rec: _Method, query_id: str, params: dict, model: LinearModel
    ) -> RankedList:
        """A learned method's model ranking; empty when the query has no candidates."""
        if self._no_candidates(query_id):
            return RankedList(query_id, ())
        return score(model, self._normalized(rec, query_id, params))

    def _normalized(self, rec: _Method, query_id: str, params: dict) -> FeatureMatrix:
        """A learned method's min-maxed matrix for one query. Shared across
        folds when the method says so, keyed by the vector-grid point and the
        tuned parameters of the stages it reads."""
        def compute():
            return minmax_normalize(rec.vectors(self, query_id, params))

        if not rec.shares_matrices:
            return compute()
        key = (
            "matrix", rec.vectors, query_id,
            tuple(params[name] for name, _ in rec.vector_grid),
            *(_frozen(self.params[stage]) for stage in rec.reads),
        )
        return self.pipe.memo(key, compute)

    def _run(
        self, rec: _Method, query_id: str, params: dict, ranking: RankedList | None
    ) -> RankedList:
        """The method's run at ``params``; a learned method's is its model's
        ``ranking``, fused with the document ranking when the method says so."""
        if not rec.vectors:
            return rec.rank(self, query_id, params)
        return rec.rank(self, query_id, params, ranking) if rec.rank else ranking


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


def run_experiment(config: ExperimentConfig, out_dir: str | Path) -> ExperimentReport:
    """Execute the leave-one-out protocol and write all artifacts."""
    out_dir = Path(out_dir)
    pipe = _Pipeline(config)
    plan = CvPlan(tuple(sorted(pipe.queries)), seed=config.seed)

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
        for method, model in runner.models.items():
            model.save(model_dir / _MODEL_FILES.get(method, f"{method}.json"))
        params = runner.params
        fold_summaries[test_q] = {
            "train": runner.train_queries,
            "validation": runner.val_queries,
            "init_mu": params.get("init-LTR", {}).get("mu"),
            "qsf": dict(params.get("QSF", {"mu": None, "lambda": None})),
            "psg_mu": params.get("PsgLTR", {}).get("mu"),
            "method_params": {m: params[m] for m in config.methods if m in params},
        }

    report = _assemble_report(config, pipe, runs, fold_summaries)
    _write_outputs(config, out_dir, runs, report)
    return report


def _per_query_metrics(
    config: ExperimentConfig, pipe: _Pipeline, method: str, run: RankedList, qid: str
) -> dict:
    if method in DOC_METHODS:
        metrics = query_metrics(run, pipe.doc_judgments, config.doc_cutoff, {})
    else:
        spans = pipe.query_data(qid).passage_spans
        metrics = query_metrics(run, pipe.psg_judgments, config.psg_cutoff, spans)
    row = {"query_id": qid, "method": method, **metrics}
    row["primary"] = row["maip"] if "maip" in row else row["ap"]
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
            f.name: hashlib.sha256(Path(path).read_bytes()).hexdigest()
            for f in CONFIG_FIELDS
            if f.kind == "path" and (path := getattr(config, f.name)) is not None
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
