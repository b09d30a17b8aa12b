import json
from pathlib import Path

import pytest

from psgrank.experiment import ConfigError, ExperimentConfig, run_experiment
from psgrank.synthetic import SyntheticSpec, generate


def _tiny_corpus(tmp_path, seed=5):
    spec = SyntheticSpec(
        n_docs=48,
        n_queries=6,
        doc_tokens=90,
        window_len=30,
        relevant_per_query=4,
        distractors_per_query=4,
        vocab_size=300,
        seed=seed,
    )
    return generate(spec, tmp_path / "data")


_TINY_GRIDS = {
    "mu": [1500.0],
    "svm_c": [0.01],
    "alpha": [0.0, 0.5, 1.0],
    "nu": [0.0, 60.0],
    "qsf_lambda": [0.3, 0.6],
    "docpsg_lambda": [0.3, 0.6],
    "plm_sigma": [50.0],
    "plm_lambda": [0.0, 0.4],
    "plm_beta": [0.4],
    "sdm_weights": [[0.8, 0.1, 0.1]],
}


def _tiny_config(paths, methods, **overrides):
    base = {
        "corpus": str(paths["corpus"]),
        "topics": str(paths["topics"]),
        "doc_qrels": str(paths["doc_qrels"]),
        "psg_qrels": str(paths["psg_qrels"]),
        "methods": methods,
        "trainer": "pairwise_hinge",
        "window_len": 30,
        "seed": 11,
        "grids": _TINY_GRIDS,
        "trainer_params": {"epochs": 60},
    }
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestConfigValidation:
    def test_unknown_method_lists_allowed(self, tmp_path):
        paths = _tiny_corpus(tmp_path)
        config = _tiny_config(paths, ["NotAMethod"])
        problems = config.validate()
        assert any("NotAMethod" in p and "JPDs" in p for p in problems)

    def test_all_problems_enumerated(self, tmp_path):
        config = ExperimentConfig.from_dict(
            {
                "corpus": str(tmp_path / "missing.jsonl"),
                "topics": str(tmp_path / "missing.tsv"),
                "methods": ["LM", "Bogus"],
                "trainer": "boost",
                "grids": {"mu": [], "qsf_lamda": [0.5]},
                "trainer_params": {"epochs": 5, "epoch": 5, "lr": 0.1},
            }
        )
        problems = config.validate()
        assert len(problems) >= 7
        joined = " | ".join(problems)
        assert "Bogus" in joined and "boost" in joined and "'mu'" in joined
        for key in ("qsf_lamda", "epoch", "lr"):
            assert sum(f"{key!r}" in p for p in problems) == 1, key

    def test_methods_need_qrels(self, tmp_path):
        paths = _tiny_corpus(tmp_path)
        config = _tiny_config(paths, ["JPDs"])
        config.doc_qrels = None
        assert any("doc_qrels" in p for p in config.validate())
        config = _tiny_config(paths, ["RRF"])
        config.psg_qrels = None
        assert any("psg_qrels" in p for p in config.validate())

    def test_qsf_psg_ranker_relaxes_psg_qrels_only_for_ltr(self, tmp_path):
        paths = _tiny_corpus(tmp_path)
        config = _tiny_config(paths, ["RRF"], psg_ranker="qsf")
        config.psg_qrels = None
        # QSF's own tuning still needs a passage metric.
        assert any("psg_qrels" in p for p in config.validate())

    def test_single_query_dataset_rejected(self, tmp_path):
        paths = _tiny_corpus(tmp_path)
        topics = tmp_path / "one.tsv"
        topics.write_text("q00\tqterm00ax qterm00bx qterm00cx\n")
        config = _tiny_config(paths, ["LM"])
        config.topics = topics
        with pytest.raises(ConfigError, match="at least 2"):
            run_experiment(config, tmp_path / "out")

    def test_unknown_config_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({"methods": ["LM"], "bogus_key": 1})

    def test_method_singular_alias(self):
        config = ExperimentConfig.from_dict({"method": "LM"})
        assert config.methods == ["LM"]


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        paths = _tiny_corpus(tmp_path)
        config = _tiny_config(paths, ["LM", "RRF", "JPDs"])
        run_experiment(config, tmp_path / "out1")
        run_experiment(config, tmp_path / "out2")
        tree1 = _tree_bytes(tmp_path / "out1")
        tree2 = _tree_bytes(tmp_path / "out2")
        assert tree1.keys() == tree2.keys()
        for name in tree1:
            assert tree1[name] == tree2[name], name

    @staticmethod
    def _assert_worker_count_invariant(tmp_path, **overrides):
        paths = _tiny_corpus(tmp_path)
        for workers in (1, 4):
            config = _tiny_config(paths, ["RRF"], workers=workers, **overrides)
            run_experiment(config, tmp_path / f"w{workers}")
        tree1 = _tree_bytes(tmp_path / "w1")
        tree4 = _tree_bytes(tmp_path / "w4")
        assert tree1.keys() == tree4.keys()
        for name in tree1:
            if name.endswith("config.resolved.json") or name == "report.json":
                continue  # the resolved config records the worker count
            assert tree1[name] == tree4[name], name

    def test_worker_count_does_not_change_output(self, tmp_path):
        self._assert_worker_count_invariant(tmp_path)

    def test_worker_count_does_not_change_multi_mu_output(self, tmp_path):
        grids = {**_TINY_GRIDS, "mu": [500.0, 2500.0]}
        self._assert_worker_count_invariant(tmp_path, grids=grids)


class TestCvHygiene:
    def test_poisoned_test_query_qrels_do_not_change_fold_models(self, tmp_path):
        paths = _tiny_corpus(tmp_path)
        config = _tiny_config(paths, ["JPDs"])
        run_experiment(config, tmp_path / "clean")

        # Poison one query's judgments: mark different documents relevant
        # (keeping at least one so the query survives filtering).
        target = "q03"
        doc_lines = Path(paths["doc_qrels"]).read_text().splitlines()
        poisoned_docs = []
        flipped = 0
        for line in doc_lines:
            qid, _, doc_id, grade = line.split()
            if qid == target and flipped < 2:
                poisoned_docs.append(f"{qid} 0 poison{flipped} 1")
                flipped += 1
            else:
                poisoned_docs.append(line)
        poisoned_doc_qrels = tmp_path / "poisoned_doc_qrels.txt"
        poisoned_doc_qrels.write_text("\n".join(poisoned_docs) + "\n")

        psg_lines = Path(paths["psg_qrels"]).read_text().splitlines()
        poisoned_psg = [
            line for line in psg_lines if not line.startswith(f"{target}\t")
        ]
        first = next(line for line in psg_lines if line.startswith(f"{target}\t"))
        qid, doc_id, start, end = first.split("\t")
        poisoned_psg.append(f"{qid}\t{doc_id}\t0\t5")
        poisoned_psg_qrels = tmp_path / "poisoned_psg_qrels.tsv"
        poisoned_psg_qrels.write_text("\n".join(sorted(poisoned_psg)) + "\n")

        poisoned_config = _tiny_config(paths, ["JPDs"])
        poisoned_config.doc_qrels = poisoned_doc_qrels
        poisoned_config.psg_qrels = poisoned_psg_qrels
        run_experiment(poisoned_config, tmp_path / "poisoned")

        clean_models = _tree_bytes(tmp_path / "clean" / "models" / target)
        poisoned_models = _tree_bytes(tmp_path / "poisoned" / "models" / target)
        assert clean_models.keys() == poisoned_models.keys()
        assert len(clean_models) >= 3  # init-ltr, psg-ranker, JPDs
        for name in clean_models:
            assert clean_models[name] == poisoned_models[name], name

        # The fold's run for the held-out query is likewise untouched.
        def run_lines(root):
            lines = (root / "runs" / "JPDs.trec").read_text().splitlines()
            return [ln for ln in lines if ln.startswith(f"{target} ")]

        assert run_lines(tmp_path / "clean") == run_lines(tmp_path / "poisoned")


class TestTunerSanity:
    def test_dominated_alpha_never_selected(self, tmp_path):
        # The passage ranking separates relevant documents almost perfectly
        # on this corpus while whole-document evidence is misleading, so on
        # validation alpha=0 dominates alpha=1; picking 1.0 would mean the
        # tuner chose a strictly worse grid value (ties keep the earlier
        # entry, which is 0.0).
        paths = _tiny_corpus(tmp_path)
        config = _tiny_config(paths, ["RRF"])
        config.grids["alpha"] = [0.0, 1.0]
        config.grids["nu"] = [60.0]
        report = run_experiment(config, tmp_path / "out")
        for fold in report.folds.values():
            assert fold["method_params"]["RRF"]["alpha"] == 0.0


class TestAllMethods:
    def test_every_method_runs_end_to_end(self, tmp_path):
        paths = _tiny_corpus(tmp_path)
        methods = [
            "LM", "SDM", "DocPsg", "init-LTR", "RRF", "SMPD", "JPDs",
            "JPDs-second", "JPDs-third", "JPDs-lowest", "JPD-2",
            "JPDm-avg", "JPDm-max", "JPDm-min", "FPD", "QSF", "PLM", "PsgLTR",
        ]
        config = _tiny_config(paths, methods)
        config.grids["alpha"] = [0.0, 0.5, 1.0]
        report = run_experiment(config, tmp_path / "out")
        assert set(report.methods) == set(methods)
        for method in methods:
            run_file = tmp_path / "out" / "runs" / f"{method}.trec"
            assert run_file.exists() and run_file.stat().st_size > 0
        # Document methods must permute the same candidate set as LM.
        lm_lines = (tmp_path / "out" / "runs" / "LM.trec").read_text().splitlines()
        lm_docs = {}
        for line in lm_lines:
            qid, _, doc_id, _, _, _ = line.split()
            lm_docs.setdefault(qid, set()).add(doc_id)
        for method in ("RRF", "SMPD", "JPDs", "JPD-2", "JPDm-max", "FPD", "init-LTR"):
            lines = (tmp_path / "out" / "runs" / f"{method}.trec").read_text().splitlines()
            docs = {}
            for line in lines:
                qid, _, doc_id, _, _, _ = line.split()
                docs.setdefault(qid, set()).add(doc_id)
            assert docs == lm_docs, method
        # Every pair appears in the significance matrix.
        assert len(report.significance) == len(methods) * (len(methods) - 1) // 2


class TestAblationExclusions:
    def test_builder_referenced_features_can_be_ablated(self, tmp_path):
        # Excluding features the joint-vector builders themselves reference
        # (DocQuerySim, PsgQuerySim, any doc feature) must not break the
        # pipeline; the built-in exclusions degrade to no-ops.
        paths = _tiny_corpus(tmp_path)
        config = _tiny_config(paths, ["SMPD", "JPDs", "JPD-2", "JPDm-max", "FPD"])
        config.exclusions = ["psg.DocQuerySim", "psg.PsgQuerySim", "doc.SW1"]
        report = run_experiment(config, tmp_path / "out")
        assert set(report.methods) == {"SMPD", "JPDs", "JPD-2", "JPDm-max", "FPD"}
        import json as _json

        for model_path in (tmp_path / "out" / "models").rglob("JPDs.json"):
            model = _json.loads(model_path.read_text())
            feats = model["schema"]["features"]
            assert "d.SW1" not in feats
            assert "p.PsgQuerySim" not in feats and "p.DocQuerySim" not in feats


class TestReportShape:
    def test_report_artifacts(self, tmp_path):
        paths = _tiny_corpus(tmp_path)
        config = _tiny_config(paths, ["LM", "RRF"])
        report = run_experiment(config, tmp_path / "out")
        out = tmp_path / "out"
        assert (out / "report.json").exists()
        assert (out / "per_query.jsonl").exists()
        assert (out / "runs" / "LM.trec").exists()
        assert (out / "runs" / "RRF.trec").exists()
        assert (out / "config.resolved.json").exists()
        assert set(report.methods) == {"LM", "RRF"}
        assert report.manifest["corpus_manifest"]["doc_count"] == 48
        sig = report.significance
        assert len(sig) == 1 and {sig[0]["a"], sig[0]["b"]} == {"LM", "RRF"}
        data = json.loads((out / "report.json").read_text())
        assert data["manifest"]["queries"] == sorted(report.manifest["queries"])

    def test_passage_method_run(self, tmp_path):
        paths = _tiny_corpus(tmp_path)
        config = _tiny_config(paths, ["QSF", "PsgLTR"])
        report = run_experiment(config, tmp_path / "out")
        assert "mean_maip" in report.methods["QSF"]
        assert "mean_ip_0.01" in report.methods["PsgLTR"]
        run_lines = (tmp_path / "out" / "runs" / "QSF.trec").read_text().splitlines()
        assert all(len(line.split()) == 6 for line in run_lines)

    def test_sentence_mode_end_to_end(self, tmp_path):
        # Sentence segmentation with binary sentence judgments (the
        # novelty-track style protocol): QSF and PsgLTR rank sentences.
        import json as _json

        from psgrank.corpus import ingest_corpus
        from psgrank.passage import SegmentationParams, segment

        rng_words = [f"filler{i:02d}" for i in range(30)]
        corpus = tmp_path / "scorpus.jsonl"
        topics = tmp_path / "stopics.tsv"
        qrels = tmp_path / "sqrels.tsv"
        doc_qrels = tmp_path / "sdoc_qrels.txt"
        lines = []
        topic_lines = []
        docs = {}
        for q in range(4):
            term = f"stopic{q}x"
            topic_lines.append(f"sq{q}\t{term}")
            for r in range(3):
                doc_id = f"sd{q}{r}"
                sentences = [
                    f"{rng_words[(q * 7 + r + i) % 30]} noise words here."
                    for i in range(3)
                ]
                sentences[1 + (r % 2)] = f"{term} appears in this sentence {term} twice."
                docs[doc_id] = " ".join(sentences)
        with corpus.open("w") as f:
            for doc_id, text in sorted(docs.items()):
                f.write(_json.dumps({"id": doc_id, "text": text}) + "\n")
        topics.write_text("\n".join(topic_lines) + "\n")
        store = ingest_corpus(corpus)
        qrel_lines = []
        doc_qrel_lines = []
        for q in range(4):
            term_stem = f"stopic{q}x"
            for doc_id in sorted(docs):
                if not doc_id.startswith(f"sd{q}"):
                    continue
                doc_qrel_lines.append(f"sq{q} 0 {doc_id} 1")
                for p in segment(store.get(doc_id), SegmentationParams(1, "sentence")):
                    stems = store.get(doc_id).stems()[p.token_range[0]:p.token_range[1]]
                    grade = 1 if term_stem in stems else 0
                    qrel_lines.append(f"sq{q}\t{p.passage_id}\t{grade}")
        qrels.write_text("\n".join(qrel_lines) + "\n")
        doc_qrels.write_text("\n".join(doc_qrel_lines) + "\n")

        config = ExperimentConfig.from_dict(
            {
                "corpus": str(corpus),
                "topics": str(topics),
                "doc_qrels": str(doc_qrels),
                "psg_qrels": str(qrels),
                "psg_qrels_mode": "sentence_binary",
                "segmentation_mode": "sentence",
                "methods": ["QSF", "PsgLTR"],
                "seed": 6,
                "grids": {
                    "mu": [500.0], "svm_c": [0.01], "alpha": [0.5], "nu": [60.0],
                    "qsf_lambda": [0.2, 0.5], "docpsg_lambda": [0.4],
                    "plm_sigma": [50.0], "plm_lambda": [0.4], "plm_beta": [0.4],
                    "sdm_weights": [[0.8, 0.1, 0.1]],
                },
                "trainer_params": {"epochs": 40},
            }
        )
        report = run_experiment(config, tmp_path / "out")
        # The on-topic sentence is trivially retrievable: both methods
        # should rank it at or near the top.
        assert report.methods["QSF"]["mean_ap"] > 0.8
        assert report.methods["PsgLTR"]["mean_ap"] > 0.8

    def test_query_matching_no_documents_yields_empty_run(self, tmp_path):
        # A judged query whose terms miss the whole collection produces an
        # empty ranking everywhere instead of crashing the fold.
        paths = _tiny_corpus(tmp_path)
        topics = Path(paths["topics"]).read_text()
        new_topics = tmp_path / "topics_plus.tsv"
        new_topics.write_text(topics + "qxx\tunmatchableterm\n")
        doc_qrels = Path(paths["doc_qrels"]).read_text()
        new_qrels = tmp_path / "qrels_plus.txt"
        new_qrels.write_text(doc_qrels + "qxx 0 doc0000 1\n")
        psg_qrels = Path(paths["psg_qrels"]).read_text()
        new_psg = tmp_path / "psg_plus.tsv"
        new_psg.write_text(psg_qrels + "qxx\tdoc0000\t0\t30\n")
        config = _tiny_config(paths, ["LM", "RRF", "JPDs", "QSF"])
        config.topics = new_topics
        config.doc_qrels = new_qrels
        config.psg_qrels = new_psg
        report = run_experiment(config, tmp_path / "out")
        assert "qxx" in report.manifest["queries"]
        lm_rows = [r for r in report.per_query if r["method"] == "LM"]
        qxx = next(r for r in lm_rows if r["query_id"] == "qxx")
        assert qxx["ap"] == 0.0  # judged relevant docs, nothing retrieved
        run_text = (tmp_path / "out" / "runs" / "RRF.trec").read_text()
        assert not any(line.startswith("qxx ") for line in run_text.splitlines())

    def test_coordinate_ascent_trainer_end_to_end(self, tmp_path):
        paths = _tiny_corpus(tmp_path)
        config = _tiny_config(
            paths, ["init-LTR"], trainer="coordinate_ascent",
            trainer_params={"restarts": 1, "max_passes": 3},
        )
        report = run_experiment(config, tmp_path / "out")
        assert "init-LTR" in report.methods
        model = json.loads(
            (tmp_path / "out" / "models" / "q00" / "init-ltr.json").read_text()
        )
        assert model["trainer"] == "coordinate_ascent"
