"""Command-line surface wiring the modules into reproducible pipelines.

Commands: index, segment, features, train, run, eval, ablate, ttest.
Exit codes: 0 success, 1 validation error, 2 runtime error. All paths are
resolved relative to --workdir; outputs go only to the designated output
locations, inputs are never mutated.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path
from typing import Callable, Mapping

from .corpus import (
    CORPUS_FORMATS, CorpusError, CorpusStore, ingest_corpus, load_topics, read_json_file,
)
from .evaluation import (
    QRELS_LOADERS,
    JudgmentError,
    average_precision,
    check_cutoff,
    check_ttest_params,
    interpolated_precision,  # noqa: F401  (benchmarks/spans.py wraps it here)
    load_char_qrels,
    load_doc_qrels,
    mean_metric,
    paired_ttest,
    precision_at,
    query_metrics,
)
from .experiment import (
    CONFIG_FIELDS, FEATURE_FREE_METHODS, ConfigError, ExperimentConfig, _Pipeline, _train,
    run_experiment,
)
from .features import (
    DOC_SCHEMA,
    PSG_SCHEMA,
    FeatureSchema,
    SemanticResources,
    doc_features,  # noqa: F401  (benchmarks/spans.py wraps it here)
    minmax_normalize,
    read_svmlight,
    write_svmlight,
)
from .index import IndexError_, LmParams, build_index, float_sum
from .index import retrieve_lm  # noqa: F401  (benchmarks/spans.py wraps it here)
from .ltr import TRAINERS, TrainingError, TrainingSet, ndcg_at_k
# benchmarks/spans.py wraps these here too; `psgrank train` calls them through _train.
from .ltr import train_coordinate_ascent, train_pairwise  # noqa: F401
from .passage import SEGMENTATION_MODES, SegmentationParams, passage_spans, segment
from .rank import read_trec_run


class UsageError(ValueError):
    """CLI-level validation failure (exit code 1)."""


def _check_flags(checks: Mapping[str, Callable[[], object]], problems=()) -> None:
    """Run each flag's check; raise UsageError naming every flag whose check
    raises ValueError, after any ``problems`` already found. Commands call it
    before reading any input."""
    problems = list(problems)
    for flag, check in checks.items():
        try:
            check()
        except ValueError as exc:
            problems.append(f"{flag}: {exc}")
    if problems:
        raise UsageError("; ".join(problems))


def _cmd_index(args) -> int:
    store = ingest_corpus(args.corpus, args.format)
    if not len(store):
        raise CorpusError(f"{args.corpus}: holds no documents")
    out = Path(args.out)
    manifest = store.save(out)
    print(f"documents: {manifest['doc_count']}")
    print(f"tokens: {manifest['token_count']}")
    print(f"terms: {len(store.analysis[1])}")
    print(f"manifest: {out / 'manifest.json'}")
    return 0


def _cmd_segment(args) -> int:
    _check_flags({"--length": partial(SegmentationParams, args.length, args.mode)})
    params = SegmentationParams(args.length, args.mode)
    store = CorpusStore.load(args.store)
    count = 0
    with Path(args.out).open("w", encoding="utf-8") as f:
        f.write("passage_id\tdoc_id\ttoken_start\ttoken_end\tchar_start\tchar_end\n")
        for doc in store.documents:
            for p in segment(doc, params):
                f.write(
                    f"{p.passage_id}\t{p.doc_id}\t{p.token_range[0]}\t{p.token_range[1]}"
                    f"\t{p.char_range[0]}\t{p.char_range[1]}\n"
                )
                count += 1
    print(f"passages: {count}")
    print(f"written: {args.out}")
    return 0


def _features_config(args) -> ExperimentConfig:
    """The config of a run whose staging the dump is; raises UsageError
    naming every bad flag."""
    config = ExperimentConfig()
    config.segmentation_mode = args.seg_mode
    fields = {f.name: f for f in CONFIG_FIELDS}
    problems = []
    for flag, name in (("init_mu", "init_mu"), ("k_docs", "doc_cutoff"), ("length", "window_len")):
        setattr(config, name, getattr(args, flag))
        flag = "--" + flag.replace("_", "-")
        problems += [f"{flag}: {p}" for p in fields[name].problems(getattr(config, name))]
    _check_flags({"--mu": partial(LmParams, args.mu)}, problems)
    return config


def _cmd_features(args) -> int:
    config = _features_config(args)
    store = CorpusStore.load(args.store)
    index = build_index(store)
    load_qrels = load_doc_qrels if args.kind == "doc" else load_char_qrels
    pipe = _Pipeline(
        config, store, index, load_topics(args.topics, store.tokenizer),
        SemanticResources(esa_index=index),
        **{f"{args.kind}_judgments": load_qrels(args.qrels) if args.qrels else None},
    )
    vectors = pipe.doc_vectors if args.kind == "doc" else pipe.psg_vectors
    dump = []
    for qid in pipe.queries:
        # Rows in retrieval order: the candidates, or each candidate's passages.
        data = pipe.query_data(qid)
        order = data.c_init.ids()
        if args.kind == "psg":
            order = [p.passage_id for d in order for p in data.passages_by_doc[d]]
        grades = pipe.grades(args.kind, qid)
        dump.append((vectors(qid, args.mu).take(order), [grades.get(i, 0) for i in order]))
    if args.normalize:
        dump = [(minmax_normalize(matrix), grades) for matrix, grades in dump]
    schema = DOC_SCHEMA if args.kind == "doc" else PSG_SCHEMA
    write_svmlight(args.out, dump)
    schema_path = Path(args.out).with_suffix(Path(args.out).suffix + ".schema.json")
    schema_path.write_text(
        json.dumps({"name": schema.name, "features": list(schema.features)}, indent=2) + "\n",
        encoding="utf-8",
    )
    print(f"vectors: {sum(len(m) for m, _ in dump)}")
    print(f"written: {args.out}")
    print(f"schema: {schema_path}")
    return 0


def _cmd_train(args) -> int:
    _check_flags({
        "--" + s.name.replace("_", "-"): partial(s.check, getattr(args, s.name))
        for _, table in TRAINERS.values() for s in table if s.flag
    })
    schema_path = Path(args.features).with_suffix(Path(args.features).suffix + ".schema.json")
    if not schema_path.exists():
        raise UsageError(f"schema sidecar not found: {schema_path}")
    meta = read_json_file(schema_path, UsageError)
    schema = FeatureSchema.from_json(meta, schema_path, UsageError)
    data = TrainingSet(read_svmlight(args.features, schema))
    model = _train(args.trainer, data, args.seed, vars(args))
    model.save(args.out)
    from .ltr import score as ltr_score

    ndcgs = []
    for matrix, grades in data.queries:
        run = ltr_score(model, matrix)
        ndcgs.append(ndcg_at_k(run, dict(zip(matrix.item_ids, grades.tolist())), 10))
    print(f"examples: {len(data)}")
    print(f"queries: {len(data.queries)}")
    print(f"train mean NDCG@10: {float_sum(ndcgs) / len(ndcgs):.4f}")
    print(f"model: {args.out}")
    return 0


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    for f in CONFIG_FIELDS:
        if f.override and getattr(args, f.name) is not None:
            setattr(config, f.name, getattr(args, f.name))
    report = run_experiment(config, args.out)
    for method in sorted(report.methods):
        parts = "  ".join(f"{k}={v:.4f}" for k, v in sorted(report.methods[method].items()))
        print(f"{method}: {parts}")
    print(f"report: {Path(args.out) / 'report.json'}")
    return 0


def _cmd_eval(args) -> int:
    checks = {"--cutoff": partial(check_cutoff, args.cutoff)}
    if args.mode == "char_focused":
        checks["--length"] = partial(SegmentationParams, args.length, args.seg_mode)
    _check_flags(checks)
    runs = read_trec_run(args.run)
    judgments = QRELS_LOADERS[args.mode](args.qrels)
    spans = {}
    if args.mode == "char_focused":
        if not args.store:
            raise UsageError("char_focused evaluation needs --store to resolve passage spans")
        store = CorpusStore.load(args.store)
        seg = SegmentationParams(args.length, args.seg_mode)
        spans = passage_spans(p for doc in store.documents for p in segment(doc, seg))
        for run in runs:
            unknown = next((pid for pid in run.ids() if pid not in spans), None)
            if unknown is not None:
                raise JudgmentError(
                    f"query {run.query_id}: run passage {unknown!r} is not a passage of "
                    f"{args.store} under --length {args.length} --seg-mode {args.seg_mode}"
                )
    per_query = [
        {"query_id": run.query_id, **query_metrics(run, judgments, args.cutoff, spans)}
        for run in runs
    ]
    means = (
        {"mean_ip_0.01": "ip_0.01", "mean_ip_0.1": "ip_0.1", "maip": "maip"}
        if args.mode == "char_focused" else {"map": "ap", "mean_p10": "p10"}
    )
    aggregate = {name: mean_metric([r[key] for r in per_query]) for name, key in means.items()}
    if args.json:
        print(json.dumps({"per_query": per_query, "aggregate": aggregate}, sort_keys=True))
    else:
        for row in per_query:
            parts = "  ".join(
                f"{k}={'n/a' if v is None else format(v, '.4f')}"
                for k, v in row.items()
                if k != "query_id"
            )
            print(f"{row['query_id']}: {parts}")
        for k, v in sorted(aggregate.items()):
            print(f"{k}: {v:.4f}")
    return 0


def _cmd_ablate(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    problems = config.validate()
    if problems:
        raise ConfigError("; ".join(problems))
    if all(m in FEATURE_FREE_METHODS for m in config.methods):
        raise UsageError(
            "ablation needs at least one feature-based method; "
            f"configured: {', '.join(config.methods)}"
        )
    features = args.feature
    ablated_config = ExperimentConfig.from_file(args.config)
    ablated_config.exclusions = list(ablated_config.exclusions) + features
    problems = ablated_config.validate()
    if problems:
        raise ConfigError("; ".join(problems))
    baseline = run_experiment(config, Path(args.out) / "baseline")
    ablated = run_experiment(ablated_config, Path(args.out) / "ablated")

    comparison = {}
    for method in sorted(baseline.methods):
        base_rows = {
            r["query_id"]: r["primary"] for r in baseline.per_query if r["method"] == method
        }
        abl_rows = {
            r["query_id"]: r["primary"] for r in ablated.per_query if r["method"] == method
        }
        qids = sorted(
            q for q in base_rows if base_rows[q] is not None and abl_rows.get(q) is not None
        )
        entry = {
            "baseline": mean_metric(list(base_rows.values())),
            "ablated": mean_metric(list(abl_rows.values())),
        }
        entry["delta"] = entry["ablated"] - entry["baseline"]
        if len(qids) >= 2:
            try:
                t = paired_ttest(
                    [base_rows[q] for q in qids], [abl_rows[q] for q in qids]
                )
                entry.update(t=t.t, p=t.p, significant=t.significant)
            except ValueError as exc:
                entry["ttest"] = str(exc)
        comparison[method] = entry
    out_path = Path(args.out) / "ablation.json"
    out_path.write_text(
        json.dumps({"excluded": features, "methods": comparison}, sort_keys=True, indent=2)
        + "\n",
        encoding="utf-8",
    )
    for method, entry in comparison.items():
        print(
            f"{method}: baseline={entry['baseline']:.4f} "
            f"ablated={entry['ablated']:.4f} delta={entry['delta']:+.4f}"
        )
    print(f"written: {out_path}")
    return 0


# The per-query measures `psgrank ttest` compares: (run, judgments, cutoff) -> value.
_TTEST_MEASURES = {
    "map": lambda run, judgments, cutoff: average_precision(run, judgments, cutoff),
    "p10": lambda run, judgments, cutoff: precision_at(run, judgments, 10),
}


def _metric_per_query(run_path: str, qrels_path: str, measure: str, cutoff: int) -> dict:
    judgments = load_doc_qrels(qrels_path)
    measure = _TTEST_MEASURES[measure]
    return {run.query_id: measure(run, judgments, cutoff) for run in read_trec_run(run_path)}


def _cmd_ttest(args) -> int:
    try:
        check_ttest_params(args.alpha, args.corrections)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _check_flags({"--cutoff": partial(check_cutoff, args.cutoff)})
    a = _metric_per_query(args.run_a, args.qrels, args.measure, args.cutoff)
    b = _metric_per_query(args.run_b, args.qrels, args.measure, args.cutoff)
    qids = sorted(q for q in a if a[q] is not None and q in b and b[q] is not None)
    if len(qids) < 2:
        raise UsageError("need at least 2 comparable queries")
    result = paired_ttest(
        [a[q] for q in qids], [b[q] for q in qids],
        alpha=args.alpha, corrections=args.corrections,
    )
    print(f"queries: {len(qids)}")
    print(f"mean_a: {mean_metric([a[q] for q in qids]):.4f}")
    print(f"mean_b: {mean_metric([b[q] for q in qids]):.4f}")
    print(f"t: {result.t:.4f}")
    print(f"p: {result.p:.6g}")
    print(f"significant: {result.significant}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psgrank",
        description="Passage-informed document retrieval toolkit",
    )
    parser.add_argument("--workdir", default=".", help="base directory for relative paths")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="ingest a corpus into a document store")
    p.add_argument("--corpus", required=True)
    p.add_argument("--format", default="jsonl", choices=CORPUS_FORMATS)
    p.add_argument("--out", required=True, help="store directory to create")
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("segment", help="write the passage table of a stored corpus")
    p.add_argument("--store", required=True)
    p.add_argument("--length", type=int, default=300)
    p.add_argument("--mode", default="fixed", choices=SEGMENTATION_MODES)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("features", help="dump feature vectors in SVMlight format")
    p.add_argument("--store", required=True)
    p.add_argument("--topics", required=True)
    p.add_argument("--kind", required=True, choices=["doc", "psg"])
    p.add_argument("--qrels", help="grades source (doc qrels or char-span qrels)")
    p.add_argument("--out", required=True)
    p.add_argument("--mu", type=float, default=1500.0)
    p.add_argument("--init-mu", type=float, default=1000.0, dest="init_mu")
    p.add_argument("--k-docs", type=int, default=1000, dest="k_docs")
    p.add_argument("--length", type=int, default=300)
    p.add_argument("--seg-mode", default="fixed", choices=SEGMENTATION_MODES, dest="seg_mode")
    p.add_argument("--normalize", action="store_true", help="min-max normalize per query")
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("train", help="train a linear model from an SVMlight dump")
    p.add_argument("--features", required=True)
    p.add_argument("--trainer", default="pairwise_hinge", choices=TRAINERS)
    p.add_argument("--out", required=True)
    for s in (s for _, table in TRAINERS.values() for s in table if s.flag):
        p.add_argument("--" + s.name.replace("_", "-"), type=type(s.default), default=s.default)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("run", help="run a configured experiment end to end")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    for f in CONFIG_FIELDS:
        if f.override:
            p.add_argument(
                "--" + f.name.replace("_", "-"), help=f"override the config {f.name}",
                type=int if f.kind == "int" else None,
                choices=f.rule if f.kind == "choice" else None,
            )
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("eval", help="evaluate a TREC run file against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--mode", default="doc_graded", choices=QRELS_LOADERS)
    p.add_argument("--store", help="store directory (char_focused only)")
    p.add_argument("--length", type=int, default=300)
    p.add_argument("--seg-mode", default="fixed", choices=SEGMENTATION_MODES, dest="seg_mode")
    p.add_argument("--cutoff", type=int, default=1000)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ablate", help="re-run an experiment with features excluded")
    p.add_argument("--config", required=True)
    p.add_argument("--feature", required=True, action="append",
                   help="feature name, optionally qualified as doc.X / psg.X")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("ttest", help="paired t-test between two runs")
    p.add_argument("--run-a", required=True, dest="run_a")
    p.add_argument("--run-b", required=True, dest="run_b")
    p.add_argument("--qrels", required=True)
    p.add_argument("--measure", default="map", choices=_TTEST_MEASURES)
    p.add_argument("--cutoff", type=int, default=1000)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--corrections", type=int, default=1)
    p.set_defaults(func=_cmd_ttest)
    return parser


_PATH_ARGS = (
    "corpus", "out", "store", "topics", "qrels", "features", "config", "run",
    "run_a", "run_b",
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    workdir = Path(args.workdir)
    for name in _PATH_ARGS:
        value = getattr(args, name, None)
        if value is not None and not Path(value).is_absolute():
            setattr(args, name, str(workdir / value))
    try:
        return args.func(args)
    except (UsageError, ConfigError, CorpusError, JudgmentError, TrainingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (IndexError_, OSError, ValueError, ArithmeticError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
