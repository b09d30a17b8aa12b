"""Benchmark inputs, configs and correctness checks, one entry per workload.

Every input is generated from the workload seed; the program under test
only ever sees the files written here. The generators build on
``psgrank.synthetic.generate`` and leave ``SyntheticSpec`` unchanged.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np

WORKLOADS = ("effect", "deep", "toolchain")

# Grids of the criterion-6 acceptance test. Multi-mu grids are left out
# until the ESA cache is keyed by mu (see benchmarks/README.md).
_GRIDS = {
    "mu": [1500.0],
    "svm_c": [0.01],
    "alpha": [round(0.1 * i, 1) for i in range(11)],
    "nu": [0.0, 30.0, 60.0, 90.0, 100.0],
    "qsf_lambda": [0.3, 0.5, 0.7],
    "docpsg_lambda": [0.5],
    "plm_sigma": [50.0],
    "plm_lambda": [0.4],
    "plm_beta": [0.4],
    "sdm_weights": [[0.8, 0.1, 0.1]],
}

# deep: 6 queries over 300-token documents, plus noise documents that each
# carry one term of 3 queries. Every 3-subset of the 6 queries is used by
# the same number of noise documents, so each query gets exactly
# 16 + _NOISE_DOCS * 3 / 6 = 166 candidates, on every seed.
_DEEP_QUERIES = 6
_DEEP_BASE_DOCS = 200
_NOISE_DOCS = 300
_QUERIES_PER_NOISE_DOC = 3

# toolchain run files: two document runs per query (for ttest) and one
# passage run holding every passage of the corpus (for char-focused eval).
_DOC_RUN_DEPTH = 100


def _inputs(root: Path) -> dict[str, str]:
    """Input paths as the workload's children see them (cwd = rep dir)."""
    return {
        name: f"../{root.name}/{file}"
        for name, file in (
            ("corpus", "corpus.jsonl"),
            ("topics", "topics.tsv"),
            ("doc_qrels", "doc_qrels.txt"),
            ("psg_qrels", "psg_qrels.tsv"),
            ("run_a", "run_a.trec"),
            ("run_b", "run_b.trec"),
            ("psg_run", "psg_run.trec"),
        )
    }


def _experiment_config(inputs: dict, methods: list[str], window_len: int) -> dict:
    return {
        "corpus": inputs["corpus"],
        "topics": inputs["topics"],
        "doc_qrels": inputs["doc_qrels"],
        "psg_qrels": inputs["psg_qrels"],
        "methods": methods,
        "trainer": "pairwise_hinge",
        "psg_ranker": "ltr",
        "window_len": window_len,
        "seed": 42,
        "grids": _GRIDS,
        "trainer_params": {"epochs": 100},
    }


def generate(workload: str, seed: int, root: Path) -> dict:
    """Write the workload's inputs under ``root`` and return its plan.

    The plan is plain JSON: the experiment config (effect, deep) or the
    CLI steps (toolchain), plus what the correctness check needs.
    """
    from psgrank.synthetic import SyntheticSpec, generate as generate_synthetic

    root.mkdir(parents=True, exist_ok=True)
    inputs = _inputs(root)
    if workload == "effect":
        generate_synthetic(SyntheticSpec(seed=seed), root)
        _shuffle_doc_ids(root, np.random.default_rng([seed, 3]))
        config = _experiment_config(inputs, ["LM", "RRF", "JPDs", "JPDs-lowest"], 300)
        return {"workload": workload, "config": config}
    if workload == "deep":
        spec = SyntheticSpec(
            n_docs=_DEEP_BASE_DOCS,
            n_queries=_DEEP_QUERIES,
            doc_tokens=300,
            window_len=100,
            seed=seed,
        )
        generate_synthetic(spec, root)
        _append_noise_docs(root, spec.doc_tokens, np.random.default_rng([seed, 1]))
        _shuffle_doc_ids(root, np.random.default_rng([seed, 3]))
        config = _experiment_config(inputs, ["LM", "SMPD", "JPDs", "JPDm-avg"], 100)
        return {
            "workload": workload,
            "config": config,
            "queries": sorted(_read_topics(root / "topics.tsv")),
        }
    if workload == "toolchain":
        spec = SyntheticSpec(seed=seed)
        generate_synthetic(spec, root)
        _shuffle_doc_ids(root, np.random.default_rng([seed, 3]))
        rng = np.random.default_rng([seed, 2])
        _write_doc_runs(root, rng)
        _write_passage_run(root, spec.doc_tokens, spec.window_len, rng)
        return {
            "workload": workload,
            "steps": _toolchain_steps(inputs, spec.window_len),
            "candidates": _candidate_count(root),
        }
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _toolchain_steps(inputs: dict, window_len: int) -> list[list[str]]:
    length = str(window_len)
    return [
        ["index", "--corpus", inputs["corpus"], "--out", "store"],
        ["segment", "--store", "store", "--length", length, "--out", "passages.tsv"],
        ["features", "--store", "store", "--topics", inputs["topics"], "--kind", "doc",
         "--qrels", inputs["doc_qrels"], "--out", "feats.txt", "--normalize"],
        ["train", "--features", "feats.txt", "--trainer", "coordinate_ascent",
         "--out", "model.json"],
        ["eval", "--run", inputs["run_a"], "--qrels", inputs["doc_qrels"], "--json"],
        ["eval", "--run", inputs["psg_run"], "--qrels", inputs["psg_qrels"],
         "--mode", "char_focused", "--store", "store", "--length", length, "--json"],
        ["ttest", "--run-a", inputs["run_a"], "--run-b", inputs["run_b"],
         "--qrels", inputs["doc_qrels"]],
    ]


# -- generators -------------------------------------------------------------


def _read_corpus(root: Path) -> list[tuple[str, str]]:
    with (root / "corpus.jsonl").open(encoding="utf-8") as f:
        return [(rec["id"], rec["text"]) for rec in map(json.loads, f)]


def _read_topics(path: Path) -> dict[str, list[str]]:
    topics = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        qid, text = line.split("\t", 1)
        topics[qid] = text.split()
    return topics


def _append_noise_docs(root: Path, doc_tokens: int, rng: np.random.Generator) -> None:
    """Append documents that each hold one term of several queries.

    Their other tokens are drawn from the non-query tokens of the base
    corpus, so they share its background statistics.
    """
    topics = _read_topics(root / "topics.tsv")
    qids = sorted(topics)
    query_terms = {t for terms in topics.values() for t in terms}
    background = [
        tok
        for _, text in _read_corpus(root)
        for tok in text.split()
        if tok not in query_terms
    ]
    subsets = list(itertools.combinations(qids, _QUERIES_PER_NOISE_DOC))
    assignment = subsets * (_NOISE_DOCS // len(subsets))
    order = rng.permutation(len(assignment))
    with (root / "corpus.jsonl").open("a", encoding="utf-8") as f:
        for n, i in enumerate(order):
            picks = rng.integers(0, len(background), size=doc_tokens)
            tokens = [background[j] for j in picks]
            slots = rng.choice(doc_tokens, size=_QUERIES_PER_NOISE_DOC, replace=False)
            for slot, qid in zip(slots, assignment[i]):
                terms = topics[qid]
                tokens[slot] = terms[int(rng.integers(0, len(terms)))]
            doc = {"id": f"noise{n:04d}", "text": " ".join(tokens)}
            f.write(json.dumps(doc, sort_keys=True) + "\n")


def _shuffle_doc_ids(root: Path, rng: np.random.Generator) -> None:
    """Give documents ids in a seeded random order, in corpus and qrels alike.

    The synthetic generator numbers each query's relevant documents before
    its distractors, and rankings break ties by ascending id, so a ranker
    that scores every document alike would look perfect. With shuffled ids
    it does not, and the checks on MAP mean something.
    """
    records = _read_corpus(root)
    new_ids = {
        doc_id: f"doc{n:04d}"
        for (doc_id, _), n in zip(records, rng.permutation(len(records)))
    }
    with (root / "corpus.jsonl").open("w", encoding="utf-8") as f:
        for doc_id, text in records:
            f.write(json.dumps({"id": new_ids[doc_id], "text": text}, sort_keys=True) + "\n")
    for name, sep, column in (("doc_qrels.txt", " ", 2), ("psg_qrels.tsv", "\t", 1)):
        path = root / name
        rows = [line.split(sep) for line in path.read_text(encoding="utf-8").splitlines()]
        for row in rows:
            row[column] = new_ids[row[column]]
        path.write_text("".join(sep.join(row) + "\n" for row in rows), encoding="utf-8")


def _relevant_docs(root: Path) -> dict[str, set[str]]:
    rel: dict[str, set[str]] = {}
    for line in (root / "doc_qrels.txt").read_text(encoding="utf-8").splitlines():
        qid, _, doc_id, grade = line.split()
        if int(grade) > 0:
            rel.setdefault(qid, set()).add(doc_id)
    return rel


def _write_run(path: Path, ranked: dict[str, list[str]], tag: str) -> None:
    # Strictly decreasing scores, so the file order is the ranking order.
    with path.open("w", encoding="utf-8") as f:
        for qid in sorted(ranked):
            items = ranked[qid]
            for rank, item in enumerate(items, start=1):
                f.write(f"{qid} Q0 {item} {rank} {float(len(items) - rank + 1)!r} {tag}\n")


def _write_doc_runs(root: Path, rng: np.random.Generator) -> None:
    """Two document runs per query; run_a ranks relevant documents a bit higher."""
    doc_ids = [doc_id for doc_id, _ in _read_corpus(root)]
    relevant = _relevant_docs(root)
    qids = sorted(_read_topics(root / "topics.tsv"))
    runs: dict[str, dict[str, list[str]]] = {"run_a": {}, "run_b": {}}
    for qid in qids:
        for name, boost in (("run_a", 1.0), ("run_b", 0.5)):
            picks = rng.choice(len(doc_ids), size=_DOC_RUN_DEPTH, replace=False)
            pool = sorted({doc_ids[j] for j in picks} | relevant.get(qid, set()))
            keys = rng.random(len(pool)) + np.array(
                [boost if d in relevant.get(qid, ()) else 0.0 for d in pool]
            )
            order = np.argsort(-keys, kind="stable")
            runs[name][qid] = [pool[j] for j in order]
    for name, ranked in runs.items():
        _write_run(root / f"{name}.trec", ranked, name)


def _write_passage_run(
    root: Path, doc_tokens: int, window_len: int, rng: np.random.Generator
) -> None:
    """One run per query over every passage of the corpus, in shuffled order."""
    from psgrank.passage import make_passage_id

    windows = -(-doc_tokens // window_len)
    passage_ids = [
        make_passage_id(doc_id, w)
        for doc_id, _ in _read_corpus(root)
        for w in range(windows)
    ]
    ranked = {
        qid: [passage_ids[j] for j in rng.permutation(len(passage_ids))]
        for qid in sorted(_read_topics(root / "topics.tsv"))
    }
    _write_run(root / "psg_run.trec", ranked, "psg_run")


def _candidate_count(root: Path) -> int:
    """Documents holding at least one query term, summed over queries.

    Query terms are invented tokens that the analysis chain keeps as they
    are, and every list is far shorter than the 1000-document cutoff, so
    this is what LM retrieval returns.
    """
    topics = _read_topics(root / "topics.tsv")
    docs = [set(text.split()) for _, text in _read_corpus(root)]
    return sum(sum(1 for toks in docs if toks.intersection(terms)) for terms in topics.values())


# -- correctness ------------------------------------------------------------


def tree_digest(root: Path) -> str:
    """SHA-256 over every file under ``root``: relative path, then bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def _trec_queries(path: Path) -> set[str]:
    with path.open(encoding="utf-8") as f:
        return {line.split()[0] for line in f if line.strip()}


def check(plan: dict, rep_dir: Path, returncodes: list[int]) -> list[str]:
    """Problems with one rep's outputs; an empty list means it is correct."""
    workload = plan["workload"]
    problems: list[str] = []
    if workload in ("effect", "deep"):
        methods = json.loads((rep_dir / "report.json").read_text(encoding="utf-8"))["methods"]
        ap = {m: v["mean_ap"] for m, v in methods.items()}
        if not ap["JPDs"] >= ap["LM"] + 0.05:
            problems.append(f"JPDs MAP {ap['JPDs']:.4f} < LM MAP {ap['LM']:.4f} + 0.05")
    if workload == "effect":
        if not ap["RRF"] >= ap["LM"] + 0.05:
            problems.append(f"RRF MAP {ap['RRF']:.4f} < LM MAP {ap['LM']:.4f} + 0.05")
        if not ap["JPDs-lowest"] <= ap["JPDs"] + 1e-12:
            problems.append(f"JPDs-lowest MAP {ap['JPDs-lowest']:.4f} > JPDs MAP {ap['JPDs']:.4f}")
    elif workload == "deep":
        want = set(plan["queries"])
        for method in plan["config"]["methods"]:
            missing = want - _trec_queries(rep_dir / "runs" / f"{method}.trec")
            if missing:
                problems.append(f"{method} has no run for {sorted(missing)}")
    elif workload == "toolchain":
        for step, code in zip(plan["steps"], returncodes):
            if code != 0:
                problems.append(f"psgrank {step[0]} exited with {code}")
        if not problems:
            with (rep_dir / "feats.txt").open(encoding="utf-8") as f:
                vectors = sum(1 for line in f if line.strip())
            if vectors != plan["candidates"]:
                problems.append(
                    f"{vectors} feature vectors dumped for {plan['candidates']} candidates"
                )
    return problems
