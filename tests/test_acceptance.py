"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The end-to-end effect check (criterion 6) generates a 500-document
corpus and takes the bulk of the runtime.
"""

import math
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import (
    TINY_STOPWORDS, build_store, make_query, noisy_corpus, plm_ranking, qsf_ranking,
)
from psgrank.corpus import StopwordList, Tokenizer
from psgrank.experiment import ExperimentConfig, run_experiment
from psgrank.features import (
    DOC_SCHEMA,
    PSG_SCHEMA,
    FeatureMatrix,
    FeatureSchema,
    PassageFeatureExtractor,
    SemanticResources,
    concat_schemas,
    doc_features,
    doc_priors,
    query_similarities,
)
from psgrank.index import LmParams, build_index, sdm_matrix
from psgrank.ltr import (
    TrainingSet,
    _misordered,
    bucket_grade,
    ndcg_at_k,
    score,
    train_coordinate_ascent,
    train_pairwise,
)
from psgrank.passage import SegmentationParams, segment
from psgrank.rank import (
    FusionParams,
    PassageRanks,
    RankedList,
    build_smpd_vectors,
    fusion_rows,
    jpds_schema,
    positional_similarities,
    rerank_fpd,
    rerank_rrf,
)
from psgrank.evaluation import (
    JudgmentSet,
    average_precision,
    interpolated_precision,
    precision_at,
)
from psgrank.synthetic import SyntheticSpec, generate
from row_references import lm_similarity, passage_term_counts


def _report(criterion: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {criterion} {name}: {status}{suffix}")
    assert ok, f"criterion {criterion} {name} failed {suffix}"


REL = 1e-9


def _approx_rel(got, expected):
    if isinstance(got, (tuple, list)):
        return all(_approx_rel(g, e) for g, e in zip(got, expected)) and len(got) == len(
            expected
        )
    return got == pytest.approx(expected, rel=REL, abs=1e-12)


def test_criterion_1_formula_oracles():
    """Every scoring formula matches an independent brute-force oracle."""
    t0 = time.monotonic()
    tokenizer = Tokenizer(stopwords=StopwordList("tiny", TINY_STOPWORDS))
    rng = np.random.default_rng(101)
    vocab = [f"w{i}" for i in range(18)] + list(TINY_STOPWORDS)
    texts = {
        f"d{i:02d}": " ".join(rng.choice(vocab, size=int(rng.integers(8, 36))))
        for i in range(40)
    }
    store = build_store(texts, tokenizer)
    index = build_index(store)
    stems = {d.doc_id: d.stems() for d in store.documents}
    query = make_query("q1", "w1 w5 w5 w9", tokenizer)
    mu = 35.0
    params = LmParams(mu)

    ok = True
    # Query likelihood of documents and of their passages.
    lm_docs = list(texts)[:12]
    lm_passages = {d: segment(store.get(d), SegmentationParams(window_len=10)) for d in lm_docs}
    doc_sims, psg_sims = query_similarities(
        query.stems(), index, lm_docs, lm_passages, params
    )
    for doc_id in lm_docs:
        exp = oracles.doc_lm_similarity(query.stems(), doc_id, stems, mu)
        ok &= _approx_rel(doc_sims[doc_id], exp)
        for p in lm_passages[doc_id]:
            s = stems[doc_id][p.token_range[0] : p.token_range[1]]
            exp = oracles.lm_similarity(query.stems(), Counter(s), len(s), stems, mu)
            ok &= _approx_rel(psg_sims[p.passage_id], exp)
    # sdm components.
    for doc_id in list(texts)[:12]:
        got = tuple(sdm_matrix(query, [store.get(doc_id)], index, params)[0].tolist())
        exp = oracles.sdm_components(query.stems(), stems[doc_id], stems, mu)
        ok &= _approx_rel(got, exp)
    # 6 document features.
    docs = [store.get(doc_id) for doc_id in list(texts)[:12]]
    rows = doc_features(query, docs, index, params, doc_priors(docs, tokenizer.stopwords))
    for doc, vec in zip(docs, rows.tolist()):
        doc_id = doc.doc_id
        f = oracles.sdm_components(query.stems(), stems[doc_id], stems, mu)
        lower = [t.surface.lower() for t in doc.tokens]
        exp = f + (
            oracles.sw1(lower, set(TINY_STOPWORDS)),
            oracles.sw2(lower, set(TINY_STOPWORDS)),
            oracles.entropy(stems[doc_id]),
        )
        ok &= _approx_rel(vec, exp)
    # 20 passage features with full semantic resources.
    seg = SegmentationParams(window_len=10)
    doc_ids = sorted(texts)[:10]
    passages_by_doc = {d: segment(store.get(d), seg) for d in doc_ids}
    emb = {w: rng.standard_normal(6) for w in vocab[:20]}
    entities = {"q1": frozenset({"E1", "E2"})}
    for d in doc_ids[:4]:
        for p in passages_by_doc[d][:1]:
            entities[p.passage_id] = frozenset({"E2", f"X{d}"})
    resources = SemanticResources(
        embeddings=emb,
        synonyms={"w1": frozenset({"w2"})},
        entities=entities,
        esa_index=index,
    )
    extractor = PassageFeatureExtractor(
        query, store, index, doc_ids, passages_by_doc, resources, params
    )
    matrix = extractor.matrix()
    rows = dict(zip(matrix.item_ids, map(tuple, matrix.values.tolist())))
    for d in doc_ids:
        for p in passages_by_doc[d]:
            got = rows[p.passage_id]
            exp = oracles.passage_feature_vector(
                query, store, passages_by_doc, resources, mu, p, set(TINY_STOPWORDS)
            )
            ok &= _approx_rel(got, exp)
    # The reciprocal rank (the fusion row at alpha=1) and the interpolated
    # fusion scores.
    doc_list = RankedList.from_scores(
        "q1", {d: float(rng.uniform(0, 1)) for d in doc_ids}
    )
    psg_scores = {
        p.passage_id: float(rng.uniform(0, 1))
        for d in doc_ids
        for p in passages_by_doc[d]
    }
    psg_list = RankedList.from_scores("q1", psg_scores)
    doc_ranks = doc_list.ranks()
    psg_ranks = psg_list.ranks()
    nu, alpha = 60.0, 0.3
    rr, _ = fusion_rows(doc_list, [0] * len(doc_list), [1.0], [nu])
    for d, got in zip(doc_list.ids(), rr[0].tolist()):
        ok &= _approx_rel(got, 1.0 / (nu + doc_ranks[d]))
    fused = rerank_rrf(doc_list, psg_list, FusionParams(nu=nu, alpha=alpha))
    fused_scores = dict(fused.entries)
    for d in doc_ids:
        best = max(
            1.0 / (nu + psg_ranks[p.passage_id]) for p in passages_by_doc[d]
        )
        exp = alpha / (nu + doc_ranks[d]) + (1 - alpha) * best
        ok &= _approx_rel(fused_scores[d], exp)
    # SMPD's 7 statistics, as the builder appends them to each document row.
    doc_rows = FeatureMatrix(DOC_SCHEMA, "q1", doc_ids, np.zeros((len(doc_ids), len(DOC_SCHEMA))))
    smpd = build_smpd_vectors(doc_rows, PassageRanks(passages_by_doc, psg_list), nu)
    for d, row in zip(smpd.item_ids, smpd.values.tolist()):
        mine = [p.passage_id for p in passages_by_doc[d]]
        got = tuple(row[len(DOC_SCHEMA):])
        rr = [1.0 / (nu + psg_ranks[p]) for p in mine]
        mean = sum(rr) / len(rr)
        exp = (
            max(rr),
            min(rr),
            mean,
            math.sqrt(sum((x - mean) ** 2 for x in rr) / len(rr)),
            sum(1 for p in mine if psg_ranks[p] <= 50) / len(mine),
            sum(1 for p in mine if psg_ranks[p] <= 100) / len(mine),
            float(len(mine)),
        )
        ok &= _approx_rel(got, exp)
    # QSF scores.
    lam = 0.35
    qsf = qsf_ranking(query, index, doc_ids, passages_by_doc, params, lam)
    psg_sims, doc_sims = {}, {}
    for d in doc_ids:
        doc_sims[d] = oracles.doc_lm_similarity(query.stems(), d, stems, mu)
        for p in passages_by_doc[d]:
            s = stems[d][p.token_range[0] : p.token_range[1]]
            psg_sims[p.passage_id] = oracles.lm_similarity(
                query.stems(), Counter(s), len(s), stems, mu
            )
    sp, sd = sum(psg_sims.values()), sum(doc_sims.values())
    for pid, got_score in qsf.entries:
        exp = (1 - lam) * psg_sims[pid] / sp + lam * doc_sims[pid.rsplit("#", 1)[0]] / sd
        ok &= _approx_rel(got_score, exp)
    # PLM positional scores against a per-position evaluation.
    sigma, plam, pbeta = 3.0, 0.5, 0.3
    coll_counts, coll_len = oracles.collection_stats(stems)
    pos_oracle = {}
    for d in doc_ids:
        for p in passages_by_doc[d]:
            pstems = stems[d][p.token_range[0] : p.token_range[1]]
            m = len(pstems)
            best = 0.0
            for i in range(m):
                kern = [math.exp(-((i - j) ** 2) / (2 * sigma * sigma)) for j in range(m)]
                z = sum(kern)
                kept = [t for t in query.stems() if coll_counts.get(t)]
                log_score = 0.0
                for t in kept:
                    c = sum(k for j, k in enumerate(kern) if pstems[j] == t)
                    theta = (c + mu * coll_counts[t] / coll_len) / (z + mu)
                    log_score += math.log(theta) / len(kept)
                best = max(best, math.exp(log_score))
            pos_oracle[p.passage_id] = best
    for d in doc_ids:
        for p in passages_by_doc[d]:
            got = positional_similarities(query, store, index, p, params, sigma)
            got_best = float(got.max()) if got.size else 0.0
            ok &= _approx_rel(got_best, pos_oracle[p.passage_id])
    plm = plm_ranking(
        query, store, index, doc_ids, passages_by_doc, params, sigma, plam, pbeta
    )
    spos = sum(pos_oracle.values())
    for pid, got_score in plm.entries:
        exp = (
            plam * pos_oracle[pid] / spos
            + pbeta * psg_sims[pid] / sp
            + (1 - plam - pbeta) * doc_sims[pid.rsplit("#", 1)[0]] / sd
        )
        ok &= _approx_rel(got_score, exp)

    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    _report(1, "formula oracles", ok, f"{elapsed:.2f}s")


def test_criterion_2_grade_buckets():
    inputs = [0.05, 0.10, 0.25, 0.30, 0.50, 0.75, 0.99]
    expected = [0, 1, 2, 2, 3, 4, 4]
    got = [bucket_grade(x) for x in inputs]
    _report(2, "grade buckets", got == expected, f"{got}")


def test_criterion_3_schema_arity():
    # Models train on the joint schema without the passage's QueryLength;
    # the paper's footnote counts 25 features with it.
    without_ql = len(jpds_schema())
    with_ql = len(concat_schemas(
        DOC_SCHEMA, PSG_SCHEMA, a_prefix="d.", b_prefix="p.", exclusions={"DocQuerySim"}
    ))
    _report(3, "JPDs schema arity", (without_ql, with_ql) == (24, 25),
            f"{without_ql}/{with_ql}")


def test_criterion_4_metric_oracles():
    rng = np.random.default_rng(202)
    ok = True
    for _ in range(40):
        ids = [f"d{i}" for i in range(int(rng.integers(3, 10)))]
        rng.shuffle(ids)
        run = RankedList("q1", tuple((d, float(len(ids) - r)) for r, d in enumerate(ids)))
        relevant = set(rng.choice(ids, size=int(rng.integers(0, len(ids))), replace=False))
        judgments = JudgmentSet("doc_graded", {"q1": {d: 1 for d in relevant}}, {})
        ap = average_precision(run, judgments)
        exp_ap = oracles.average_precision(ids, relevant)
        ok &= ap == exp_ap or (ap is None and exp_ap is None)
        if ap is not None:
            ok &= 0.0 <= ap <= 1.0
        for k in (1, 5, 10):
            p = precision_at(run, judgments, k)
            ok &= p == oracles.precision_at(ids, relevant, k)
            ok &= 0.0 <= p <= 1.0
        grades = {d: int(rng.integers(0, 4)) for d in ids[:5]}
        n = ndcg_at_k(run, grades, 10)
        ok &= n == pytest.approx(oracles.ndcg(ids, grades, 10), rel=1e-12)
        ok &= 0.0 <= n <= 1.0
    # Character-level interpolated precision on a hand-enumerable layout.
    passage_spans = {
        "d1#0": ("d1", 0, 40),
        "d1#1": ("d1", 30, 90),
        "d2#0": ("d2", 0, 50),
        "d2#1": ("d2", 50, 60),
    }
    rel_spans = {"d1": [(10, 50)], "d2": [(45, 58)]}
    run_ids = ["d2#0", "d1#0", "d1#1", "d2#1"]
    run = RankedList("q1", tuple((p, float(9 - r)) for r, p in enumerate(run_ids)))
    judgments = JudgmentSet("char_focused", {}, {"q1": rel_spans})
    points = tuple(i / 10 for i in range(11))
    got = interpolated_precision(run, judgments, passage_spans, points)
    exp = oracles.interpolated_precision_bitmap(run_ids, passage_spans, rel_spans, points)
    got_ip, got_maip = got
    exp_ip, exp_maip = exp
    ok &= all(got_ip[x] == pytest.approx(exp_ip[x], abs=1e-12) for x in points)
    ok &= got_maip == pytest.approx(exp_maip, abs=1e-12)
    curve = [got_ip[x] for x in points]
    ok &= curve == sorted(curve, reverse=True)
    ok &= all(0.0 <= v <= 1.0 for v in curve) and 0.0 <= got_maip <= 1.0
    _report(4, "metric oracles", ok)


def test_criterion_5_trainer_properties(tmp_path):
    schema = FeatureSchema("t", ("f0", "f1"))

    def query(qid, rows):
        """One query's (matrix, grades) from (item_id, values, grade) rows."""
        matrix = FeatureMatrix(schema, qid, [i for i, _, _ in rows], [v for _, v, _ in rows])
        return matrix, [g for _, _, g in rows]

    # Pairwise: separable data reaches 0 errors within 200 epochs.
    rng = np.random.default_rng(7)
    data = []
    for q in range(3):
        rows = []
        for i in range(6):
            grade = i % 2
            base = 1.0 if grade else -1.0
            rows.append((f"i{i}", (base + float(rng.normal(0, 0.1)), float(rng.normal())), grade))
        data.append(query(f"q{q}", rows))
    model = train_pairwise(TrainingSet(data), c=1.0, epochs=200, seed=1)
    diffs = []
    for matrix, grades in data:
        for hi, hi_grade in zip(matrix.values, grades):
            for lo, lo_grade in zip(matrix.values, grades):
                if hi_grade > lo_grade:
                    diffs.append(np.subtract(hi, lo))
    errors = _misordered(np.array(diffs) @ np.array(model.weights))
    ok = errors == 0

    # Coordinate ascent: monotone accepted objective, reaches 1.0 when one
    # feature equals the grade.
    ca_data = []
    rng = np.random.default_rng(8)
    for q in range(3):
        rows = []
        for i in range(10):
            grade = int(rng.integers(0, 4))
            rows.append((f"i{i:02d}", (float(grade), float(rng.normal())), grade))
        ca_data.append(query(f"q{q}", rows))
    trace = []
    ca_model = train_coordinate_ascent(TrainingSet(ca_data), restarts=2, seed=3, trace=trace)
    by_restart = {}
    for restart, obj in trace:
        by_restart.setdefault(restart, []).append(obj)
    ok &= all(objs == sorted(objs) for objs in by_restart.values())
    ndcgs = []
    for matrix, grades in ca_data:
        run = score(ca_model, matrix)
        ndcgs.append(ndcg_at_k(run, dict(zip(matrix.item_ids, grades)), 10))
    ok &= sum(ndcgs) / len(ndcgs) == pytest.approx(1.0)

    # Byte-identical retraining with identical seeds.
    for trainer, kwargs in (
        (train_pairwise, {"c": 0.5, "epochs": 80, "seed": 5}),
        (train_coordinate_ascent, {"restarts": 2, "seed": 5}),
    ):
        trainer(TrainingSet(data), **kwargs).save(tmp_path / "m1.json")
        trainer(TrainingSet(data), **kwargs).save(tmp_path / "m2.json")
        ok &= (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()
    _report(5, "trainer properties", ok)


@pytest.fixture(scope="module")
def synthetic_500(tmp_path_factory):
    root = tmp_path_factory.mktemp("synthetic500")
    spec = SyntheticSpec()  # 500 docs, 30 queries, 900 tokens, window 300
    return generate(spec, root), root


def test_criterion_6_synthetic_effect(synthetic_500):
    paths, root = synthetic_500
    t0 = time.monotonic()
    config = ExperimentConfig.from_dict(
        {
            "corpus": str(paths["corpus"]),
            "topics": str(paths["topics"]),
            "doc_qrels": str(paths["doc_qrels"]),
            "psg_qrels": str(paths["psg_qrels"]),
            "methods": ["LM", "RRF", "JPDs", "JPDs-lowest"],
            "trainer": "pairwise_hinge",
            "window_len": 300,
            "seed": 42,
            "grids": {
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
            },
            "trainer_params": {"epochs": 100},
        }
    )
    report = run_experiment(config, root / "out")
    elapsed = time.monotonic() - t0
    lm = report.methods["LM"]["mean_ap"]
    rrf = report.methods["RRF"]["mean_ap"]
    jpds = report.methods["JPDs"]["mean_ap"]
    lowest = report.methods["JPDs-lowest"]["mean_ap"]
    ok = rrf >= lm + 0.05
    ok &= jpds >= lm + 0.05
    ok &= lowest <= jpds + 1e-12
    ok &= elapsed < 300.0
    _report(
        6,
        "synthetic effect",
        ok,
        f"LM={lm:.3f} RRF={rrf:.3f} JPDs={jpds:.3f} JPDs-lowest={lowest:.3f} "
        f"{elapsed:.0f}s",
    )


def test_criterion_7_degenerate_identities(store_factory, tokenizer):
    doc_list = RankedList.from_scores("q", {f"d{i}": float(20 - i) for i in range(8)})
    psg_scores = {f"d{i}#{j}": float(hash((i, j)) % 97) for i in range(8) for j in range(2)}
    psg_list = RankedList.from_scores("q", psg_scores)
    rrf_identity = rerank_rrf(doc_list, psg_list, FusionParams(nu=60.0, alpha=1.0))
    ok = rrf_identity.ids() == doc_list.ids()
    model_ranking = RankedList.from_scores("q", {f"d{i}": float(i) for i in range(8)})
    fpd_identity = rerank_fpd(doc_list, model_ranking, FusionParams(nu=60.0, alpha=1.0))
    ok &= fpd_identity.ids() == doc_list.ids()

    # PLM with a flat kernel matches whole-passage scoring within 1e-6.
    texts = {
        "d1": "cat dog runs cat fast dog path stone",
        "d2": "bird cat sits cat tree bird nest twig",
    }
    store = store_factory(texts)
    index = build_index(store)
    passages_by_doc = {
        d: segment(store.get(d), SegmentationParams(window_len=4)) for d in texts
    }
    query = make_query("q", "cat dog", tokenizer)
    for d, plist in passages_by_doc.items():
        for p in plist:
            pos = positional_similarities(
                query, store, index, p, LmParams(20.0), sigma=1e6
            )
            whole = lm_similarity(
                query.stems(),
                passage_term_counts(store.get(d), p),
                p.length,
                index,
                LmParams(20.0),
            )
            ok &= abs(float(pos.max()) - whole) < 1e-6
    _report(7, "degenerate-parameter identities", ok)


def _small_experiment_paths(tmp_path, seed=5):
    spec = SyntheticSpec(
        n_docs=48, n_queries=6, doc_tokens=90, window_len=30,
        relevant_per_query=4, distractors_per_query=4, vocab_size=300, seed=seed,
    )
    return generate(spec, tmp_path / "data")


def _small_config(paths, methods):
    return ExperimentConfig.from_dict(
        {
            "corpus": str(paths["corpus"]),
            "topics": str(paths["topics"]),
            "doc_qrels": str(paths["doc_qrels"]),
            "psg_qrels": str(paths["psg_qrels"]),
            "methods": methods,
            "window_len": 30,
            "seed": 11,
            "grids": {
                "mu": [1500.0], "svm_c": [0.01], "alpha": [0.0, 0.5, 1.0],
                "nu": [60.0], "qsf_lambda": [0.4], "docpsg_lambda": [0.4],
                "plm_sigma": [50.0], "plm_lambda": [0.4], "plm_beta": [0.4],
                "sdm_weights": [[0.8, 0.1, 0.1]],
            },
            "trainer_params": {"epochs": 60},
        }
    )


def test_criterion_8_cv_hygiene(tmp_path):
    _assert_cv_hygiene(tmp_path, _small_experiment_paths(tmp_path))


def test_criterion_8_cv_hygiene_leak_sensitive(tmp_path):
    # On this corpus JPDs falls short of AP 1.0, so a test query's
    # judgments reaching its fold would move the tuned models.
    _assert_cv_hygiene(tmp_path, noisy_corpus(tmp_path / "data"))


def _assert_cv_hygiene(tmp_path, paths):
    run_experiment(_small_config(paths, ["JPDs"]), tmp_path / "clean")

    target = "q02"
    doc_lines = Path(paths["doc_qrels"]).read_text().splitlines()
    poisoned = []
    flipped = 0
    for line in doc_lines:
        qid = line.split()[0]
        if qid == target and flipped < 2:
            poisoned.append(f"{qid} 0 poison{flipped} 1")
            flipped += 1
        else:
            poisoned.append(line)
    poisoned_qrels = tmp_path / "poisoned.txt"
    poisoned_qrels.write_text("\n".join(poisoned) + "\n")
    config = _small_config(paths, ["JPDs"])
    config.doc_qrels = poisoned_qrels
    run_experiment(config, tmp_path / "poisoned")

    ok = True
    clean_dir = tmp_path / "clean" / "models" / target
    poisoned_dir = tmp_path / "poisoned" / "models" / target
    names = sorted(p.name for p in clean_dir.iterdir())
    ok &= names == sorted(p.name for p in poisoned_dir.iterdir()) and len(names) >= 3
    for name in names:
        ok &= (clean_dir / name).read_bytes() == (poisoned_dir / name).read_bytes()
    _report(8, "CV hygiene", ok, f"fold {target}, models {names}")


def test_criterion_9_end_to_end_determinism(tmp_path):
    paths = _small_experiment_paths(tmp_path)
    config = _small_config(paths, ["LM", "RRF", "JPDs"])
    run_experiment(config, tmp_path / "out1")
    run_experiment(config, tmp_path / "out2")
    files1 = {
        str(p.relative_to(tmp_path / "out1")): p.read_bytes()
        for p in sorted((tmp_path / "out1").rglob("*"))
        if p.is_file()
    }
    files2 = {
        str(p.relative_to(tmp_path / "out2")): p.read_bytes()
        for p in sorted((tmp_path / "out2").rglob("*"))
        if p.is_file()
    }
    ok = files1.keys() == files2.keys()
    ok &= all(files1[name] == files2[name] for name in files1)
    _report(9, "end-to-end determinism", ok, f"{len(files1)} files compared")
