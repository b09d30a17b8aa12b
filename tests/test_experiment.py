import json
import math
from pathlib import Path

import pytest

import row_references
from conftest import noisy_corpus
from psgrank.experiment import ConfigError, ExperimentConfig, run_experiment
from psgrank.rank import rerank_rrf
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


def _noisy_corpus(tmp_path):
    return noisy_corpus(tmp_path / "data")


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

    def test_wrong_types_and_infeasible_sdm_weights_enumerated(self, tmp_path):
        paths = _tiny_corpus(tmp_path)
        config = _tiny_config(paths, ["LM"])
        config.window_len = "150"
        config.doc_cutoff = "5"
        config.psg_cutoff = 2.0
        config.seed = None
        config.init_mu = "1000"
        config.grids = dict(
            config.grids,
            sdm_weights=[[0.8, 0.1, 0.1], [0.9, 0.9, 0.9], [1.2, -0.1, -0.1], [0.5, 0.5], ["1", 0, 0]],
        )
        problems = config.validate()
        for key in ("window_len", "doc_cutoff", "psg_cutoff", "seed", "init_mu"):
            assert sum(p.startswith(f"{key} ") for p in problems) == 1, key
        bad_points = [p for p in problems if p.startswith("grid 'sdm_weights' point")]
        assert len(bad_points) == 4
        assert not any("[0.8, 0.1, 0.1]" in p for p in bad_points)
        assert len(problems) == 9

    def test_methods_need_qrels(self, tmp_path, monkeypatch, capsys):
        paths = _tiny_corpus(tmp_path)
        config = _tiny_config(paths, ["JPDs"])
        config.doc_qrels = None
        assert any("doc_qrels" in p for p in config.validate())
        config = _tiny_config(paths, ["RRF"])
        config.psg_qrels = None
        assert any("psg_qrels" in p for p in config.validate())

        # (needs doc qrels, needs passage qrels, rejected by `psgrank ablate`
        # as feature-free); the same under psg_ranker "ltr" and "qsf".
        expected = {
            "LM": (True, False, True),
            "SDM": (True, False, False),
            "DocPsg": (True, False, True),
            "init-LTR": (True, False, False),
            "RRF": (True, True, False),
            "SMPD": (True, True, False),
            "JPDs": (True, True, False),
            "JPDs-second": (True, True, False),
            "JPDs-third": (True, True, False),
            "JPDs-lowest": (True, True, False),
            "JPD-2": (True, True, False),
            "JPDm-avg": (True, False, False),
            "JPDm-max": (True, False, False),
            "JPDm-min": (True, False, False),
            "FPD": (True, True, False),
            "QSF": (False, True, True),
            "PLM": (False, True, True),
            "PsgLTR": (False, True, False),
        }
        from psgrank import cli

        def reached_runs(config, out_dir):
            raise ConfigError("ablation reached the runs")

        monkeypatch.setattr(cli, "run_experiment", reached_runs)
        config_path = tmp_path / "ablate.json"
        for psg_ranker in ("ltr", "qsf"):
            for method, (doc, psg, feature_free) in expected.items():
                config = _tiny_config(paths, [method], psg_ranker=psg_ranker)
                got = (config.needs_doc_qrels(), config.needs_psg_qrels())
                assert got == (doc, psg), (method, psg_ranker)
                config_path.write_text(
                    json.dumps({**config.resolved(), "grids": _TINY_GRIDS})
                )
                rc = cli.main(
                    ["ablate", "--config", str(config_path), "--feature", "psg.ESA",
                     "--out", str(tmp_path / "abl")]
                )
                err = capsys.readouterr().err
                assert rc == 1, (method, psg_ranker)
                rejected = "feature-based" in err
                assert rejected == feature_free, (method, psg_ranker, err)
                assert rejected or "reached the runs" in err, (method, psg_ranker, err)

    def test_methods_must_be_a_list_of_names(self, tmp_path):
        paths = _tiny_corpus(tmp_path)
        config = _tiny_config(paths, "JPDs")
        assert config.validate() == [
            "methods must be a list of method names, got 'JPDs'"
        ]
        config = _tiny_config(paths, ["LM", 5, ["JPDs"]], exclusions=["doc.SW1", 7])
        problems = config.validate()
        assert problems == [
            "methods entry 5 must be a method name",
            "methods entry ['JPDs'] must be a method name",
            "exclusions entry 7 must be a feature name",
        ]
        config = _tiny_config(paths, ["LM"], exclusions="doc.SW1")
        assert config.validate() == [
            "exclusions must be a list of feature names, got 'doc.SW1'"
        ]

    def test_trainer_param_types_and_grid_ranges_enumerated(self, tmp_path):
        paths = _tiny_corpus(tmp_path)
        config = _tiny_config(
            paths,
            ["LM"],
            trainer_params={
                "epochs": "abc", "max_pairs": 2.5, "restarts": "2", "max_passes": None,
                "learning_rate": "fast",
            },
            grids={
                **_TINY_GRIDS,
                "mu": [1500.0, -5.0],
                "alpha": [5.0, 0.5],
                "nu": [-1.0],
                "qsf_lambda": [1.5],
                "docpsg_lambda": [-0.1],
                "plm_sigma": [0.0, -3.0, 50.0],
                "plm_lambda": [2.0, 0.4],
                "plm_beta": [-0.5, 0.4],
            },
        )
        problems = config.validate()
        for key in ("epochs", "max_pairs", "restarts", "max_passes", "learning_rate"):
            assert sum(p.startswith(f"trainer_params {key!r}") for p in problems) == 1, key
        bad_points = {
            ("mu", "-5.0"), ("alpha", "5.0"), ("nu", "-1.0"), ("qsf_lambda", "1.5"),
            ("docpsg_lambda", "-0.1"), ("plm_sigma", "0.0"), ("plm_sigma", "-3.0"),
            ("plm_lambda", "2.0"), ("plm_beta", "-0.5"),
        }
        for grid, point in bad_points:
            assert sum(p.startswith(f"grid {grid!r} point {point}:") for p in problems) == 1, grid
        assert len(problems) == 5 + len(bad_points)

        config = _tiny_config(
            paths, ["PLM"], grids={**_TINY_GRIDS, "plm_lambda": [0.8], "plm_beta": [0.4, 0.6]}
        )
        assert config.validate() == ["no (plm_lambda, plm_beta) pair has lambda + beta <= 1"]

    @pytest.mark.parametrize("method", ["RRF", "SMPD"])
    def test_nan_nu_rejected(self, tmp_path, method):
        paths = _tiny_corpus(tmp_path)
        config = _tiny_config(paths, [method], grids={**_TINY_GRIDS, "nu": [60.0, float("nan")]})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.resolved()))
        assert '"nu": [60.0, NaN]' in path.read_text()
        config = ExperimentConfig.from_file(path)
        assert config.validate() == ["grid 'nu' point nan: nu must be >= 0 and finite, got nan"]
        with pytest.raises(ConfigError, match="nu must be >= 0 and finite, got nan"):
            run_experiment(config, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_non_object_grids_and_trainer_params_listed(self, tmp_path):
        paths = _tiny_corpus(tmp_path)
        config = _tiny_config(paths, ["LM"], grids=[1], trainer_params=5)
        assert config.validate() == [
            "grids must be a JSON object, got [1]",
            "trainer_params must be a JSON object, got 5",
        ]
        config = _tiny_config(paths, ["LM"], grids="mu", trainer_params=["epochs"])
        assert config.validate() == [
            "grids must be a JSON object, got 'mu'",
            "trainer_params must be a JSON object, got ['epochs']",
        ]
        with pytest.raises(ConfigError, match="grids must be a JSON object"):
            run_experiment(_tiny_config(paths, ["LM"], grids=[1]), tmp_path / "out")
        assert not (tmp_path / "out").exists()

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

    def test_workers_is_an_unknown_key(self):
        with pytest.raises(ConfigError, match=r"unknown config keys: \['workers'\]"):
            ExperimentConfig.from_dict({"methods": ["LM"], "workers": 2})

    @pytest.mark.parametrize("data", [[1], 5, "LM", None])
    def test_non_object_config_rejected(self, data):
        with pytest.raises(ConfigError, match="config must be a JSON object, got "):
            ExperimentConfig.from_dict(data)

    def test_method_singular_alias(self):
        config = ExperimentConfig.from_dict({"method": "LM"})
        assert config.methods == ["LM"]

    @pytest.mark.parametrize("method", [5, None, {"LM": 1}])
    def test_singular_method_neither_string_nor_list_reported(self, method):
        config = ExperimentConfig.from_dict({"method": method})
        assert config.methods == method
        assert f"methods must be a list of method names, got {method!r}" in config.validate()


class TestConfigFields:
    """Walks the field table that parsing, validation and the CLI read."""

    _WRONG_KIND = {
        "path": 5, "int": "7", "number": "0.5", "choice": 5, "list": "x", "mapping": [1],
    }

    def test_every_field_rejects_a_value_of_the_wrong_kind(self, tmp_path):
        from psgrank.experiment import CONFIG_FIELDS

        valid = _tiny_config(_tiny_corpus(tmp_path), ["LM"]).resolved()
        assert ExperimentConfig.from_dict(valid).validate() == []
        for f in CONFIG_FIELDS:
            value = self._WRONG_KIND[f.kind]
            config = ExperimentConfig.from_dict({**valid, f.name: value})
            assert getattr(config, f.name) == value, f.name
            problems = config.validate()
            assert len(problems) == 1 and f.name in problems[0], (f.name, problems)
            assert repr(value) in problems[0], (f.name, problems)

    def test_defaults_and_nulls(self, tmp_path):
        from psgrank.experiment import CONFIG_FIELDS

        config = ExperimentConfig.from_dict({}, base_dir=tmp_path)
        for f in CONFIG_FIELDS:
            want = tmp_path / f.default if f.kind == "path" and f.default else f.default
            assert getattr(config, f.name) == want, f.name
        paths = _tiny_corpus(tmp_path)
        nullable = [f.name for f in CONFIG_FIELDS if f.default is None]
        assert nullable == [
            "doc_qrels", "psg_qrels", "embeddings", "synonyms", "entities", "esa_corpus",
            "ttest_corrections",
        ]
        config = _tiny_config(paths, ["QSF"], doc_qrels=None, ttest_corrections=None)
        assert config.validate() == []

    def test_paths_must_be_files(self, tmp_path):
        paths = _tiny_corpus(tmp_path)
        config = _tiny_config(paths, ["LM"], embeddings=str(tmp_path), esa_corpus="gone.jsonl")
        assert config.validate() == [
            f"embeddings is not an existing file: {tmp_path}",
            "esa_corpus is not an existing file: gone.jsonl",
        ]

    def test_every_override_has_a_run_flag(self):
        from psgrank.cli import build_parser
        from psgrank.experiment import CONFIG_FIELDS

        sub = next(a for a in build_parser()._actions if a.dest == "command")
        run = sub.choices["run"]
        flags = {a.dest: a for a in run._actions if a.option_strings}
        overrides = [f for f in CONFIG_FIELDS if f.override]
        assert sorted(f.name for f in overrides) == ["psg_ranker", "seed", "trainer", "window_len"]
        assert set(flags) == {"help", "config", "out"} | {f.name for f in overrides}
        for f in overrides:
            flag = flags[f.name]
            assert flag.option_strings == ["--" + f.name.replace("_", "-")]
            assert tuple(flag.choices or ()) == (f.rule if f.kind == "choice" else ())
            assert flag.type is (int if f.kind == "int" else None)


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
    def _assert_staging_order_invariant(tmp_path, monkeypatch, grids=_TINY_GRIDS):
        # Features are staged on first read. Staging every query at every mu
        # up front, in reverse order, must give the same bytes: each cached
        # value (ESA profiles included) is keyed by everything it depends on.
        # The configured grid itself is kept: reversing it would change
        # tie-breaks and the resolved config.
        from psgrank import experiment

        paths = _tiny_corpus(tmp_path)
        config = _tiny_config(paths, ["RRF", "JPDs"], grids=grids)
        run_experiment(config, tmp_path / "lazy")

        class ReverseStaged(experiment._Pipeline):
            def __init__(self, config, *inputs):
                super().__init__(config, *inputs)
                for qid in sorted(self.queries, reverse=True):
                    for mu in reversed(config.grids["mu"]):
                        self.psg_vectors(qid, mu)
                        self.doc_vectors(qid, mu)

        monkeypatch.setattr(experiment, "_Pipeline", ReverseStaged)
        run_experiment(config, tmp_path / "reversed")
        lazy = _tree_bytes(tmp_path / "lazy")
        reversed_ = _tree_bytes(tmp_path / "reversed")
        assert lazy.keys() == reversed_.keys()
        for name in lazy:
            assert lazy[name] == reversed_[name], name

    def test_staging_order_does_not_change_output(self, tmp_path, monkeypatch):
        self._assert_staging_order_invariant(tmp_path, monkeypatch)

    def test_staging_order_does_not_change_multi_mu_output(self, tmp_path, monkeypatch):
        grids = {**_TINY_GRIDS, "mu": [500.0, 2500.0]}
        self._assert_staging_order_invariant(tmp_path, monkeypatch, grids=grids)


    @pytest.mark.parametrize(
        "corpus,mus",
        [(_tiny_corpus, [1500.0]), (_tiny_corpus, [500.0, 2500.0]), (_noisy_corpus, [1500.0])],
        ids=["one-mu", "two-mu", "noisy"],
    )
    def test_fold_order_does_not_change_artifacts(self, tmp_path, monkeypatch, corpus, mus):
        # Fold-free work is shared across folds; running the folds in
        # reverse must give the same bytes, so nothing fold-specific can
        # reach the shared values. On the noisy corpus the fold-trained
        # rankings fall short of AP 1.0, so a leak also changes tuned values.
        from psgrank.evaluation import CvPlan

        paths = corpus(tmp_path)
        grids = {
            **_TINY_GRIDS, "mu": mus, "svm_c": [0.01, 0.1], "qsf_lambda": [0.3, 0.6],
            "sdm_weights": [[0.8, 0.1, 0.1], [0.2, 0.3, 0.5]],
        }
        config = _tiny_config(paths, ["LM", "QSF", "PsgLTR", "RRF", "JPDs", "SDM"], grids=grids)
        run_experiment(config, tmp_path / "forward")
        folds = CvPlan.folds
        monkeypatch.setattr(CvPlan, "folds", lambda plan: iter(list(folds(plan))[::-1]))
        run_experiment(config, tmp_path / "reversed")
        forward = _tree_bytes(tmp_path / "forward")
        reversed_ = _tree_bytes(tmp_path / "reversed")
        assert forward.keys() == reversed_.keys()
        for name in forward:
            assert forward[name] == reversed_[name], name


class TestLeakSensitiveCorpus:
    def test_document_methods_fall_short_and_rrf_picks_vary(self, tmp_path):
        paths = _noisy_corpus(tmp_path)
        report = run_experiment(_tiny_config(paths, ["LM", "RRF", "JPDs"]), tmp_path / "out")
        for method, metrics in report.methods.items():
            assert metrics["mean_ap"] < 0.99, method
        picks = {(f["method_params"]["RRF"]["alpha"], f["method_params"]["RRF"]["nu"])
                 for f in report.folds.values()}
        assert len(picks) > 1, picks


class TestCrossFoldMemo:
    """Each value shared across folds equals the one a cold pipeline computes."""

    def test_fold_free_and_shared_records(self):
        from types import SimpleNamespace

        from psgrank.experiment import _METHODS, _FoldRunner

        assert [m for m, r in _METHODS.items() if r.fold_free] == [
            "LM", "SDM", "DocPsg", "QSF", "PLM"
        ]
        # Every learned method that reads no trained passage ranking, or reads
        # it through its passage picks alone, which then key its matrices.
        expected = {"init-LTR": (), "PsgLTR": ("QSF",)}
        expected.update(dict.fromkeys(("JPDm-avg", "JPDm-max", "JPDm-min"), ("init-LTR",)))
        picks = {
            "JPDs": ("best",), "JPDs-second": ("second",), "JPDs-third": ("third",),
            "JPDs-lowest": ("lowest",), "JPD-2": ("best", "second"), "FPD": ("best",),
        }
        assert {m: r.picks for m, r in _METHODS.items() if r.picks} == picks
        expected.update(dict.fromkeys(picks, ("init-LTR", "passages")))
        for psg_ranker in ("ltr", "qsf"):
            if psg_ranker == "qsf":
                # SMPD reads the whole passage-rank table.
                expected["SMPD"] = ("init-LTR", "passages")
            config = ExperimentConfig()
            config.psg_ranker = psg_ranker
            runner = _FoldRunner(SimpleNamespace(config=config), ("q1", [], []))
            shared = {m: r.reads for m, r in _METHODS.items() if runner.shares_matrices(r)}
            assert shared == expected, psg_ranker

    # The queries each method's grid is picked on, as the methods table
    # stated them before the split was derived from fold_free.
    SPLITS = {
        "LM": "train", "SDM": "train", "DocPsg": "train", "QSF": "train", "PLM": "train",
        **dict.fromkeys(
            ("init-LTR", "RRF", "SMPD", "JPDs", "JPDs-second", "JPDs-third", "JPDs-lowest",
             "JPD-2", "JPDm-avg", "JPDm-max", "JPDm-min", "FPD", "PsgLTR"),
            "validation",
        ),
    }

    def test_walk_picks_on_the_split_of_each_method(self, monkeypatch):
        from psgrank import experiment

        assert set(self.SPLITS) == set(experiment.ALL_METHODS)
        runner = experiment._FoldRunner.__new__(experiment._FoldRunner)
        runner.config = ExperimentConfig()
        runner.train_queries, runner.val_queries = ["t1", "t2"], ["v1"]
        seen = []

        def metrics(method, query_id, points, ranking):
            seen.append(query_id)
            return [0.0] * len(points)

        monkeypatch.setattr(runner, "_grid_metrics", metrics, raising=False)
        monkeypatch.setattr(runner, "_training_set", lambda rec, vpoint: None, raising=False)
        monkeypatch.setattr(experiment, "_train", lambda trainer, data, seed, settings: None)
        monkeypatch.setattr(runner, "_model_ranking", lambda *args: None, raising=False)
        for method, split in self.SPLITS.items():
            seen.clear()
            runner._walk(method)
            expected = runner.train_queries if split == "train" else runner.val_queries
            # LM has no grid: its walk has one point to pick, so it reads no query.
            assert set(seen) == (set() if method == "LM" else set(expected)), method

    @pytest.mark.parametrize("psg_ranker", ["ltr", "qsf"])
    def test_stages_tuned_before_their_readers(self, monkeypatch, psg_ranker):
        # The order in which one method's fold stages are tuned, with the grid
        # walk stubbed out: the stages it reads come first, depth first.
        from types import SimpleNamespace

        from psgrank import experiment

        config = ExperimentConfig()
        config.psg_ranker = psg_ranker
        monkeypatch.setattr(experiment._FoldRunner, "_walk", lambda runner, method: ({}, None))
        passages = ["QSF", "PsgLTR"] if psg_ranker == "ltr" else ["QSF"]
        expected = {m: [m] for m in ("SDM", "DocPsg", "init-LTR", "QSF", "PLM")}
        expected.update(LM=[], PsgLTR=["QSF", "PsgLTR"])
        fused = ("RRF", "SMPD", "JPDs", "JPDs-second", "JPDs-third", "JPDs-lowest", "JPD-2", "FPD")
        for m in fused:
            expected[m] = ["init-LTR", *passages, m]
        for m in ("JPDm-avg", "JPDm-max", "JPDm-min"):
            expected[m] = ["init-LTR", m]
        assert sorted(expected) == sorted(experiment.ALL_METHODS)
        for method in experiment.ALL_METHODS:
            runner = experiment._FoldRunner(SimpleNamespace(config=config), ("q1", [], []))
            runner.prepare([method])
            assert list(runner.params) == expected[method], method

    def test_memo_holds_only_fold_free_work(self, tmp_path, monkeypatch):
        # A model-reading method's runs differ between folds, so none of its
        # metrics may be kept for the whole run, and its matrices only keyed
        # by the passages they pick (FPD's best passages).
        from psgrank import experiment

        pipes = []

        class Recorded(experiment._Pipeline):
            def __init__(self, config, *inputs):
                super().__init__(config, *inputs)
                pipes.append(self)

        monkeypatch.setattr(experiment, "_Pipeline", Recorded)
        paths = _tiny_corpus(tmp_path)
        # Two mu values, so that every walk has a choice and scores its points.
        config = _tiny_config(
            paths, ["SDM", "QSF", "RRF", "FPD"], grids={**_TINY_GRIDS, "mu": [1500.0, 2500.0]}
        )
        run_experiment(config, tmp_path / "out")
        kinds = {}
        for key in pipes[0]._memo:
            kinds.setdefault(key[0], set()).add(key[1])
        assert kinds["metric"] == {"SDM", "QSF"}
        assert kinds["matrix"] == {
            experiment._METHODS[m].vectors for m in ("init-LTR", "PsgLTR")
        }
        assert kinds["picks"] == {experiment._METHODS["FPD"].vectors}
        assert kinds["pairs"] == {"doc", "psg"}

    def test_shared_matrix_keyed_by_tuned_qsf(self, tmp_path):
        import numpy as np

        from psgrank import experiment

        paths = _tiny_corpus(tmp_path)
        # A short passage cutoff makes the QSF universe depend on lambda.
        config = _tiny_config(paths, ["PsgLTR"], psg_cutoff=5)
        qids = sorted(experiment._Pipeline.load(config).queries)
        fold = (qids[0], qids[1:4], qids[4:])
        rec = experiment._METHODS["PsgLTR"]

        def matrix(pipe, lam):
            runner = experiment._FoldRunner(pipe, fold)
            runner.params["QSF"] = {"mu": 1500.0, "lambda": lam}
            return runner._normalized(rec, qids[1], {"mu": 1500.0})

        pipe = experiment._Pipeline.load(config)
        warm = {lam: matrix(pipe, lam) for lam in (0.1, 0.9)}
        assert warm[0.1].item_ids != warm[0.9].item_ids
        for lam, got in warm.items():
            cold = matrix(experiment._Pipeline.load(config), lam)
            assert got.item_ids == cold.item_ids
            assert np.array_equal(got.values, cold.values)

    def test_sdm_weight_triples_get_their_own_metrics(self, tmp_path):
        from psgrank import experiment

        paths = _tiny_corpus(tmp_path)
        triples = [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        config = _tiny_config(paths, ["SDM"], grids={**_TINY_GRIDS, "sdm_weights": triples})
        pipe = experiment._Pipeline.load(config)
        qids = sorted(pipe.queries)
        fold = (qids[0], qids[1:], [])
        experiment._FoldRunner(pipe, fold)._walk("SDM")
        entries = {k: v for k, v in pipe._memo.items() if k[:2] == ("metric", "SDM")}
        assert len(entries) == len(triples) * len(fold[1])
        cold = experiment._Pipeline.load(config)
        cold_runner = experiment._FoldRunner(cold, fold)
        by_triple = {}
        for (_, _, params, qid), value in entries.items():
            params = dict(params)
            cold_value = cold.doc_metric(experiment._sdm(cold_runner, qid, params))
            assert value == cold_value
            by_triple.setdefault(params["weights"], []).append(value)
        assert sorted(by_triple) == [tuple(t) for t in sorted(triples)]
        assert by_triple[(1.0, 0.0, 0.0)] != by_triple[(0.0, 0.0, 1.0)]


class TestMemoOff:
    """A run with every cache bypassed writes the bytes of the cached run,
    so each cached value is keyed by everything it depends on. The larger
    mu comes first: the grid walks keep the first of tied points, so a key
    lacking mu shows only when a reader of the second mu gets the first
    mu's value and a fold picks the second. With these QSF lambdas and a
    5-passage cutoff, the tuned QSF (mu, lambda) differs between folds."""

    GRIDS = {**_TINY_GRIDS, "mu": [2500.0, 500.0], "qsf_lambda": [0.1, 0.9]}
    # The key kind each case guards, its methods and its other settings. The
    # "-noisy" cases run on a 5-query noisy corpus, where init-LTR's tuned mu
    # differs between folds.
    CASES = {
        # Extractors by (query, mu): QSF, PLM and DocPsg read both.
        "extractor": ("extractor", ["LM", "SDM", "QSF", "PLM", "DocPsg"], {}),
        # PsgLTR's shared matrices by the tuned QSF, whose top passages
        # they hold.
        "matrix": ("matrix", ["PsgLTR"], {"exclusions": ["psg.ESA"]}),
        # Concept profiles by (passage, mu): FPD reads the passage features
        # at each fold's QSF mu.
        "esa": ("esa", ["FPD"], {"psg_ranker": "qsf"}),
        # The keyword tables of the run's vocabulary by its length: each
        # query's extractor reads them at both mu.
        "esa_terms": ("esa_terms", ["JPDs"], {}),
        # The PsgLTR passage ranking that RRF fuses is trained per fold, so
        # the fold keeps it.
        "passages": ("passages", ["RRF"], {"exclusions": ["psg.ESA"]}),
        # JPDm's shared matrices by init-LTR's tuned mu, at which they hold
        # the document and passage features.
        "matrix-jpdm-noisy": ("matrix", ["JPDm-avg", "JPDm-min"], {"exclusions": ["psg.ESA"]}),
        # With QSF as the passage ranking, SMPD's, FPD's and JPD-2's matrices
        # are shared too, by init-LTR's and QSF's tuned parameters.
        "matrix-qsf-noisy": (
            "matrix", ["SMPD", "FPD", "JPD-2"], {"psg_ranker": "qsf", "exclusions": ["psg.ESA"]},
        ),
        # Under PsgLTR, the JPDs variants', JPD-2's and FPD's matrices are
        # kept by the passages they pick, which differ between folds
        # (TestPicksSlot).
        "picks": ("picks", ["JPDs-lowest", "JPD-2", "FPD"], {"exclusions": ["psg.ESA"]}),
        # Collection pair counts by (ordered, a, b), which each query's SDM
        # rows read in one batch per mu, for SDM and the document ranker.
        "pair": ("pair", ["SDM", "JPDs"], {"exclusions": ["psg.ESA"]}),
        # Training pairs by (kind, query, item ids): PsgLTR's rows are the
        # tuned QSF's top passages, which differ between folds, and with an
        # 8-passage cutoff so do 4 queries' pairs.
        "pairs": ("pairs", ["PsgLTR"], {"exclusions": ["psg.ESA"], "psg_cutoff": 8}),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_bypassed_run_writes_same_bytes(self, tmp_path, monkeypatch, case):
        from psgrank import experiment, features, index

        guarded, methods, overrides = self.CASES[case]
        noisy = case.endswith("-noisy")
        paths = noisy_corpus(tmp_path / "data", n_queries=5) if noisy else _tiny_corpus(tmp_path)
        config = _tiny_config(
            paths, methods,
            **{"grids": self.GRIDS, "psg_cutoff": 5, "trainer_params": {"epochs": 5}, **overrides},
        )
        report = run_experiment(config, tmp_path / "cached")
        if noisy:
            assert len({fold["init_mu"] for fold in report.folds.values()}) > 1
        kinds = set()

        def compute_always(memo, key, compute):
            assert not memo, f"{next(iter(memo))} written past the memo helper"
            kinds.add(key[0])
            return compute()

        for module in (index, features, experiment):
            monkeypatch.setattr(module, "memoized", compute_always)
        run_experiment(config, tmp_path / "bypassed")
        assert guarded in kinds
        cached, bypassed = _tree_bytes(tmp_path / "cached"), _tree_bytes(tmp_path / "bypassed")
        assert cached.keys() == bypassed.keys()
        for name in cached:
            assert cached[name] == bypassed[name], name


class TestPicksSlot:
    """Under PsgLTR, a method that reads the passage ranking only through its
    picks keeps one matrix per (query, tuned stages), rebuilt when the picks
    change: fewer builds than one per fold and query, and the same bytes as
    a run with every cache bypassed."""

    METHODS = ["JPDs", "JPDs-lowest", "JPD-2", "FPD"]

    @staticmethod
    def _counted(monkeypatch, builds):
        from psgrank import experiment

        def counting(name):
            build = getattr(experiment, name)

            def wrapper(doc_vectors, psg_vectors, psg_ranks, *args, **kwargs):
                picks = tuple(
                    psg_ranks.picks(doc_vectors.item_ids, w).tobytes()
                    for w in ("best", "second", "lowest")
                )
                builds.append((name, kwargs, doc_vectors.query_id, picks))
                return build(doc_vectors, psg_vectors, psg_ranks, *args, **kwargs)

            monkeypatch.setattr(experiment, name, wrapper)

        counting("build_jpds_vectors")
        counting("build_fpd_vectors")

    def test_fewer_builds_same_bytes(self, tmp_path, monkeypatch):
        from psgrank import experiment, features, index

        paths = _tiny_corpus(tmp_path)
        # Two svm_c values, so that every walk has a choice and ranks its
        # validation query.
        grids = {**_TINY_GRIDS, "svm_c": [0.01, 0.1]}
        config = _tiny_config(paths, self.METHODS, exclusions=["psg.ESA"], grids=grids)
        n_queries = len(experiment._Pipeline.load(config).queries)
        builds = []
        self._counted(monkeypatch, builds)
        run_experiment(config, tmp_path / "cached")
        by_method = {}
        for name, kwargs, qid, picks in builds:
            by_method.setdefault((name, tuple(sorted(kwargs.items()))), []).append((qid, picks))
        assert len(by_method) == len(self.METHODS)
        # A fold builds each query's matrix at least once without the slot.
        assert all(len(b) < n_queries * n_queries for b in by_method.values()), by_method
        # The picks of some query change between folds, and each change is
        # a rebuild.
        assert any(len(b) > len({q for q, _ in b}) for b in by_method.values())
        for b in by_method.values():
            for qid in {q for q, _ in b}:
                seq = [picks for q, picks in b if q == qid]
                assert all(a != c for a, c in zip(seq, seq[1:])), qid

        def compute_always(memo, key, compute):
            return compute()

        for module in (index, features, experiment):
            monkeypatch.setattr(module, "memoized", compute_always)
        builds.clear()
        run_experiment(config, tmp_path / "bypassed")
        # Each fold builds each train query's matrix once, the validation
        # query's once per trained model (2) and the test query's once.
        assert len(builds) == n_queries * (n_queries + 1) * len(self.METHODS)
        assert _tree_bytes(tmp_path / "cached") == _tree_bytes(tmp_path / "bypassed")


class TestValidationMatricesPerVectorPoint:
    """Under PsgLTR, SMPD's matrices are built per fold; a walk builds each
    query's matrix once per vector-grid point, whatever the number of
    `svm_c` values, and writes the bytes of a run with every cache bypassed."""

    def test_builds_do_not_grow_with_the_trainer_grid(self, tmp_path, monkeypatch):
        from psgrank import experiment, features, index

        paths = _tiny_corpus(tmp_path)
        build, builds = experiment.build_smpd_vectors, []

        def counting(*args, **kwargs):
            builds.append(args[0].query_id)
            return build(*args, **kwargs)

        monkeypatch.setattr(experiment, "build_smpd_vectors", counting)
        counts = {}
        for svm_c in ([0.01], [0.01, 0.1, 1.0]):
            grids = {**_TINY_GRIDS, "nu": [30.0, 60.0], "svm_c": svm_c}
            config = _tiny_config(paths, ["SMPD"], exclusions=["psg.ESA"], grids=grids)
            builds.clear()
            run_experiment(config, tmp_path / f"cached-{len(svm_c)}")
            counts[len(svm_c)] = len(builds)
        # Per fold: 4 train and 1 validation query at each of 2 nu, then the
        # test query.
        assert counts == {1: 66, 3: 66}

        def compute_always(memo, key, compute):
            return compute()

        for module in (index, features, experiment):
            monkeypatch.setattr(module, "memoized", compute_always)
        run_experiment(config, tmp_path / "bypassed")
        assert _tree_bytes(tmp_path / "cached-3") == _tree_bytes(tmp_path / "bypassed")


class TestFailedRunWritesNothing:
    def test_exception_in_a_late_fold_leaves_no_out_dir(self, tmp_path, monkeypatch):
        from psgrank import experiment

        paths = _tiny_corpus(tmp_path)
        config = _tiny_config(paths, ["LM", "JPDs"], exclusions=["psg.ESA"])
        prepare, folds = experiment._FoldRunner.prepare, []

        def failing(runner, methods):
            folds.append(runner.test_query)
            if len(folds) == 4:
                raise RuntimeError("fold failed")
            prepare(runner, methods)

        monkeypatch.setattr(experiment._FoldRunner, "prepare", failing)
        with pytest.raises(RuntimeError, match="fold failed"):
            run_experiment(config, tmp_path / "out")
        assert len(folds) == 4
        assert not (tmp_path / "out").exists()
        monkeypatch.setattr(experiment._FoldRunner, "prepare", prepare)
        run_experiment(config, tmp_path / "out")
        models = sorted(p.relative_to(tmp_path / "out") for p in (tmp_path / "out").rglob("*.json"))
        assert len([m for m in models if m.parts[0] == "models"]) == 6 * 3


class TestReusedOutDir:
    def test_rerun_leaves_exactly_a_fresh_run_tree(self, tmp_path):
        """A rerun into a used out_dir with fewer methods, then with fewer
        queries, leaves no stale run or model: the tree is a fresh run's,
        beside a file of the user's that stays, and nothing is written
        outside out_dir."""
        paths = _tiny_corpus(tmp_path)
        topics = paths["topics"].read_text(encoding="utf-8").splitlines(keepends=True)
        fewer_topics = tmp_path / "data" / "four_topics.tsv"
        fewer_topics.write_text("".join(topics[:4]), encoding="utf-8")
        first = _tiny_config(paths, ["LM", "RRF", "JPDs"], exclusions=["psg.ESA"])
        reruns = [
            _tiny_config(paths, ["LM", "JPDs"], exclusions=["psg.ESA"]),
            _tiny_config(
                dict(paths, topics=fewer_topics), ["LM", "RRF", "JPDs"], exclusions=["psg.ESA"]
            ),
        ]
        out = tmp_path / "runs" / "out"
        run_experiment(first, out)
        (out / "notes.txt").write_bytes(b"kept\n")
        assert {"runs/RRF.trec", "models/q05/JPDs.json"} <= _tree_bytes(out).keys()
        for n, config in enumerate(reruns):
            fresh = tmp_path / f"fresh{n}"
            run_experiment(config, fresh)
            run_experiment(config, out)
            assert sorted(p.name for p in out.parent.iterdir()) == ["out"]
            assert _tree_bytes(out) == {**_tree_bytes(fresh), "notes.txt": b"kept\n"}
            assert sorted(p.name for p in out.iterdir() if p.is_dir()) == ["models", "runs"]
        assert sorted(p.name for p in (out / "models").iterdir()) == ["q00", "q01", "q02", "q03"]


class TestCompensatedSum:
    """Every float sum of a run adds left to right from 0.0 (index.float_sum),
    so a Python whose builtin ``sum`` compensates its rounding, as 3.12's
    does, writes the same bytes. Here that ``sum`` is patched into every
    psgrank module's globals."""

    @staticmethod
    def compensated_sum(iterable, start=0):
        """Python 3.12's float sum: Neumaier's compensation, added once at
        the end; any other operands as the builtin adds them."""
        items = list(iterable)
        if not any(isinstance(v, float) for v in items):
            return sum(items, start)
        total, c = float(start), 0.0
        for v in items:
            t = total + v
            c += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
            total = t
        return total + c if c and math.isfinite(c) else total

    def test_compensated_sum_changes_sums(self):
        values = [0.1] * 10 + [1e16, 1.0, -1e16]
        assert self.compensated_sum(values) != sum(values)
        assert self.compensated_sum(values) == math.fsum(values)
        assert self.compensated_sum([1, 2, 3]) == 6 and isinstance(self.compensated_sum([1]), int)

    def test_learned_run_writes_the_same_bytes(self, tmp_path, monkeypatch):
        import importlib
        import pkgutil

        import psgrank

        paths = _tiny_corpus(tmp_path)
        config = _tiny_config(
            paths, ["LM", "QSF", "SDM", "JPDs"], grids={**_TINY_GRIDS, "qsf_lambda": [0.3, 0.6]},
        )
        run_experiment(config, tmp_path / "builtin")
        names = [m.name for m in pkgutil.iter_modules(psgrank.__path__)]
        assert {"features", "index", "evaluation", "cli"} <= set(names)
        for name in names:
            module = importlib.import_module(f"psgrank.{name}")
            monkeypatch.setattr(module, "sum", self.compensated_sum, raising=False)
        run_experiment(config, tmp_path / "compensated")
        assert _tree_bytes(tmp_path / "builtin") == _tree_bytes(tmp_path / "compensated")


class TestStaging:
    @staticmethod
    def _counted(monkeypatch) -> dict:
        from psgrank import experiment, features

        counts = {"extractors": 0, "matrices": 0, "doc_features": 0, "esa_profiles": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        extractor = features.PassageFeatureExtractor
        monkeypatch.setattr(extractor, "__init__", counting("extractors", extractor.__init__))
        monkeypatch.setattr(extractor, "matrix", counting("matrices", extractor.matrix))
        monkeypatch.setattr(
            experiment, "doc_features", counting("doc_features", experiment.doc_features)
        )
        # Every profile, the query's and the passages' blocks, comes from
        # concept_profiles: count its term lists.
        concept_profiles = features.concept_profiles

        def counting_lists(term_lists, *args, **kwargs):
            counts["esa_profiles"] += len(term_lists)
            return concept_profiles(term_lists, *args, **kwargs)

        monkeypatch.setattr(features, "concept_profiles", counting_lists)
        return counts

    def test_lm_only_run_extracts_no_features(self, tmp_path, monkeypatch):
        paths = _tiny_corpus(tmp_path)
        counts = self._counted(monkeypatch)
        run_experiment(_tiny_config(paths, ["LM"]), tmp_path / "out")
        assert counts == {"extractors": 0, "matrices": 0, "doc_features": 0, "esa_profiles": 0}

    @pytest.mark.parametrize("methods", [["QSF"], ["PLM", "DocPsg"]])
    def test_similarity_methods_build_no_vectors(self, tmp_path, monkeypatch, methods):
        paths = _tiny_corpus(tmp_path)
        counts = self._counted(monkeypatch)
        run_experiment(_tiny_config(paths, methods), tmp_path / "out")
        assert counts["extractors"] > 0
        assert counts["matrices"] == 0 and counts["doc_features"] == 0
        assert counts["esa_profiles"] == 0

    def test_excluded_esa_builds_no_profiles(self, tmp_path, monkeypatch):
        paths = _tiny_corpus(tmp_path)
        counts = self._counted(monkeypatch)
        run_experiment(_tiny_config(paths, ["JPDs"]), tmp_path / "full")
        assert counts["matrices"] > 0 and counts["esa_profiles"] > 0
        # Passage profiles are counted, not only each extractor's query profile.
        assert counts["esa_profiles"] > counts["extractors"]
        counts.update(dict.fromkeys(counts, 0))
        config = _tiny_config(paths, ["JPDs"], exclusions=["psg.ESA"])
        run_experiment(config, tmp_path / "ablated")
        assert counts["matrices"] > 0 and counts["esa_profiles"] == 0


class TestSentenceUniverse:
    """Under sentence segmentation, "judged" stages the documents the
    sentence judgments name that the store holds, in id order; "retrieved"
    stages the initial ranking."""

    @pytest.mark.parametrize("universe", ["judged", "retrieved"])
    def test_staged_documents(self, tmp_path, universe):
        from psgrank import experiment

        paths = _tiny_corpus(tmp_path)
        qids = [line.split("\t")[0] for line in Path(paths["topics"]).read_text().splitlines()]
        # Documents of every query, out of id order, and one the store lacks.
        judged = ["doc0041", "doc0003", "doc0017", "nodoc"]
        qrels = tmp_path / "sentences.tsv"
        qrels.write_text(
            "".join(f"{q}\t{d}#{n}\t{int(n == 0)}\n" for q in qids for n, d in enumerate(judged))
        )
        config = _tiny_config(
            paths, ["QSF"], psg_qrels=str(qrels), psg_qrels_mode="sentence_binary",
            segmentation_mode="sentence", sentence_universe=universe,
        )
        pipe = experiment._Pipeline.load(config)
        assert list(pipe.queries) == qids
        differ = 0
        for qid in qids:
            data = pipe.query_data(qid)
            want = sorted(judged[:3]) if universe == "judged" else data.c_init.ids()
            assert list(data.passages_by_doc) == want
            assert all(data.passages_by_doc.values())
            differ += sorted(judged[:3]) != data.c_init.ids()
        assert differ == len(qids)


def _rescoring_walk(runner, method):
    """The grid walk as it was: a learned method's model scores every
    query again at every point of its grid."""
    from psgrank import experiment
    from psgrank.evaluation import mean_metric
    from psgrank.ltr import TrainingSet

    rec = experiment._METHODS[method]
    cfg = runner.config
    queries = runner.train_queries if rec.fold_free else runner.val_queries
    if rec.kind == "doc":
        metric, grade = runner.pipe.doc_metric, runner.pipe.doc_judgments.grade
    else:
        metric, grade = runner.pipe.psg_metric, lambda q, i: runner.pipe.grades("psg", q)[i]
    best = model = None
    for vpoint in experiment._grid_points(cfg, rec.vector_grid):
        if rec.vectors:
            matrices = [
                experiment.minmax_normalize(rec.vectors(runner, q, vpoint))
                for q in runner.train_queries
            ]
            training = TrainingSet(
                (m, [grade(m.query_id, i) for i in m.item_ids]) for m in matrices
            )
        for hyper in experiment._trainer_grid(cfg) if rec.vectors else [{}]:
            if rec.vectors:
                model = experiment._train(
                    cfg.trainer, training, cfg.seed, {**cfg.trainer_params, **hyper}
                )
            for rpoint in experiment._grid_points(cfg, rec.grid):
                if rec.feasible and not rec.feasible(rpoint):
                    continue
                params = {**vpoint, **rpoint, **(hyper if rec.hyper_in_params else {})}
                runs = [
                    runner._run(
                        rec, q, params,
                        runner._model_ranking(rec, q, params, model) if rec.vectors else None,
                    )
                    for q in queries
                ]
                m = mean_metric([metric(run) for run in runs])
                if best is None or m > best[0]:
                    best = (m, params, model)
    return best[1], best[2]


class TestWalkScoresEachModelOnce:
    def test_fpd_scores_each_model_once_per_query(self, tmp_path, monkeypatch):
        from psgrank import experiment

        paths = _tiny_corpus(tmp_path)
        calls = []
        score = experiment.score

        def counted(model, matrix):
            calls.append(matrix.query_id)
            return score(model, matrix)

        monkeypatch.setattr(experiment, "score", counted)
        counts = {}
        walk = experiment._FoldRunner._walk
        for name, methods, walker in (
            ("fpd", ["FPD"], walk), ("fpd-rescoring", ["FPD"], _rescoring_walk),
            ("jpds", ["JPDs"], walk), ("jpds-rescoring", ["JPDs"], _rescoring_walk),
        ):
            monkeypatch.setattr(experiment._FoldRunner, "_walk", walker)
            calls.clear()
            # Two svm_c values, so that every walk has a choice and scores
            # its validation query with each of its 2 models.
            grids = {**_TINY_GRIDS, "svm_c": [0.01, 0.1]}
            run_experiment(_tiny_config(paths, methods, grids=grids), tmp_path / name)
            counts[name] = len(calls)
        # 3 x 2 (alpha, nu) points cost FPD 5 extra scorings per model and
        # fold before.
        assert counts == {"fpd": 90, "fpd-rescoring": 150, "jpds": 78, "jpds-rescoring": 78}
        for name in ("fpd", "jpds"):
            assert _tree_bytes(tmp_path / name) == _tree_bytes(tmp_path / f"{name}-rescoring")


class TestOnePointWalk:
    """A walk whose grids hold one point, after ``feasible``, has no choice to
    make: it trains that point's model and ranks and scores no validation
    query. Its params and model bytes equal those of the walk that evaluates
    every point (the rescoring walk above), and so do the run trees."""

    ONE_POINT = {
        **_TINY_GRIDS, "alpha": [0.5], "nu": [60.0], "qsf_lambda": [0.3],
        "docpsg_lambda": [0.3], "plm_lambda": [0.4],
    }
    CASES = {
        "one-point": (["SDM", "QSF", "PLM", "DocPsg", "RRF", "SMPD", "JPDs", "FPD"], ONE_POINT),
        # lambda 0.8 with beta 0.4 is infeasible, which leaves PLM one point.
        "plm-feasible": (["PLM"], {**ONE_POINT, "plm_lambda": [0.4, 0.8]}),
    }

    @staticmethod
    def _run(config, out, monkeypatch, walker) -> tuple[list, dict]:
        """Each walk's picks, with its model's weight bytes, and the
        validation score, iP and AP calls of the run."""
        import numpy as np

        from psgrank import experiment

        picks, calls, validation = [], dict.fromkeys(("score", "ip", "ap"), 0), set()
        prepare, score = experiment._FoldRunner.prepare, experiment.score

        def preparing(runner, methods):
            validation.clear()
            validation.update(runner.val_queries)
            return prepare(runner, methods)

        def walking(runner, method):
            params, model = walker(runner, method)
            weights = None if model is None else np.array(model.weights).tobytes()
            picks.append((runner.test_query, method, params, weights))
            return params, model

        def scoring(model, matrix):
            calls["score"] += matrix.query_id in validation
            return score(model, matrix)

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        with monkeypatch.context() as patch:
            patch.setattr(experiment._FoldRunner, "prepare", preparing)
            patch.setattr(experiment._FoldRunner, "_walk", walking)
            patch.setattr(experiment, "score", scoring)
            for name, key in (
                ("interpolated_precision", "ip"), ("average_precision", "ap"),
                ("average_precisions", "ap"),
            ):
                patch.setattr(experiment, name, counted(key, getattr(experiment, name)))
            run_experiment(config, out)
        return picks, calls

    @pytest.mark.parametrize("case", list(CASES))
    def test_skips_validation_and_picks_as_the_evaluating_walk(self, tmp_path, monkeypatch, case):
        from psgrank import experiment

        methods, grids = self.CASES[case]
        config = _tiny_config(_tiny_corpus(tmp_path), methods, grids=grids)
        skipping, skipped = self._run(
            config, tmp_path / "skipping", monkeypatch, experiment._FoldRunner._walk
        )
        evaluating, evaluated = self._run(
            config, tmp_path / "evaluating", monkeypatch, _rescoring_walk
        )
        assert skipped == {"score": 0, "ip": 0, "ap": 0}
        assert evaluated["ip"] > 0
        if case == "one-point":
            assert evaluated["score"] > 0 and evaluated["ap"] > 0
            assert any(weights for *_, weights in skipping)
        assert skipping == evaluating
        assert _tree_bytes(tmp_path / "skipping") == _tree_bytes(tmp_path / "evaluating")


class TestGridScorersEqualPerPointWalk:
    def test_tuned_params_and_runs_equal_per_point_walk(self, tmp_path, monkeypatch):
        # RRF and FPD score each query's (alpha, nu) grid as array rows, and
        # RRF, FPD and JPDs read the passage-rank table; walking both fusion
        # grids one scalar fusion and one scalar AP per point
        # (row_references.fuse and average_precision), with FPD and JPDs rows
        # picked by select_passage, tunes the same points and writes the
        # same bytes, under either passage ranker.
        from dataclasses import replace

        from psgrank import experiment

        paths = _noisy_corpus(tmp_path)
        defaults = experiment._default_grids()
        grids = {**_TINY_GRIDS, "alpha": defaults["alpha"], "nu": defaults["nu"]}
        methods = ["RRF", "FPD", "JPDs-lowest"]
        points = len(grids["alpha"]) * len(grids["nu"])
        # Under the learned passage ranker every fold tunes FPD to (0, 0);
        # under QSF its picks vary, so a wrong grid score moves an artifact.
        for psg_ranker, varying in (("ltr", ("RRF",)), ("qsf", ("RRF", "FPD"))):
            config = _tiny_config(paths, methods, grids=grids, psg_ranker=psg_ranker)
            grid = run_experiment(config, tmp_path / psg_ranker / "grid")
            fused = {"RRF": 0, "FPD": 0}

            def counted(name, rank):
                def wrapper(*args):
                    fused[name] += 1
                    return rank(*args)

                return wrapper

            with monkeypatch.context() as patch:
                for name, rec in row_references.per_point_methods(experiment._METHODS).items():
                    if name in fused:
                        rec = replace(rec, rank=counted(name, rec.rank))
                    patch.setitem(experiment._METHODS, name, rec)
                patch.setattr(experiment, "average_precision", row_references.average_precision)
                per_point = run_experiment(config, tmp_path / psg_ranker / "per-point")
            # The reference fused every validation query at every point.
            assert fused["RRF"] > len(grid.folds) * points
            assert fused["FPD"] > len(grid.folds) * points * len(grids["svm_c"])
            assert grid.folds == per_point.folds
            for method in varying:
                picks = {(f["method_params"][method]["alpha"], f["method_params"][method]["nu"])
                         for f in grid.folds.values()}
                assert len(picks) > 1, (psg_ranker, method, picks)
            assert _tree_bytes(tmp_path / psg_ranker / "grid") == _tree_bytes(
                tmp_path / psg_ranker / "per-point"
            )


class TestTrainingGrades:
    def test_training_set_grades_equal_per_item_lookup(self, tmp_path):
        # Each training matrix is graded from its query's grades, read once;
        # every row's grade equals the judgment lookup of its own item.
        from psgrank import experiment
        from psgrank.evaluation import CvPlan

        paths = _noisy_corpus(tmp_path)
        pipe = experiment._Pipeline.load(_tiny_config(paths, ["JPDs"]))
        fold = CvPlan(tuple(sorted(pipe.queries)), seed=pipe.config.seed).folds()[0]
        runner = experiment._FoldRunner(pipe, fold)
        runner.prepare(["JPDs"])
        for method in ("init-LTR", "PsgLTR", "JPDs"):
            rec = experiment._METHODS[method]
            vpoint = next(experiment._grid_points(pipe.config, rec.vector_grid))
            training = runner._training_set(rec, vpoint)
            assert len(training.queries) == len(runner.train_queries)
            for matrix, grades in training.queries:
                q = matrix.query_id
                if rec.kind == "doc":
                    expected = [pipe.doc_judgments.grade(q, i) for i in matrix.item_ids]
                else:
                    expected = [pipe.query_data(q).psg_grades[i] for i in matrix.item_ids]
                assert grades.tolist() == expected
            assert any(grades.any() for _, grades in training.queries), method


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


class TestPipelineIsOracleCode:
    def test_experiment_runs_equal_rank_oracles(self, tmp_path):
        from psgrank.corpus import ingest_corpus, load_topics
        from psgrank.index import LmParams, build_index, retrieve_lm
        from psgrank.passage import SegmentationParams, segment
        from psgrank.rank import rank_docpsg, rank_plm, rank_qsf, read_trec_run

        paths = _tiny_corpus(tmp_path)
        store = ingest_corpus(paths["corpus"])
        index = build_index(store)
        queries = {q.query_id: q for q in load_topics(paths["topics"], store.tokenizer)}
        points = [
            {"mu": 500.0, "qsf": 0.3, "docpsg": 0.6, "sigma": 50.0, "lam": 0.4, "beta": 0.4},
            {"mu": 2500.0, "qsf": 0.8, "docpsg": 0.2, "sigma": 120.0, "lam": 0.0, "beta": 0.7},
        ]
        for n, pt in enumerate(points):
            grids = {
                **_TINY_GRIDS, "mu": [pt["mu"]], "qsf_lambda": [pt["qsf"]],
                "docpsg_lambda": [pt["docpsg"]], "plm_sigma": [pt["sigma"]],
                "plm_lambda": [pt["lam"]], "plm_beta": [pt["beta"]],
            }
            config = _tiny_config(paths, ["QSF", "PLM", "DocPsg"], grids=grids)
            out = tmp_path / f"out{n}"
            run_experiment(config, out)
            runs = {
                method: {r.query_id: r for r in read_trec_run(out / "runs" / f"{method}.trec")}
                for method in ("QSF", "PLM", "DocPsg")
            }
            assert runs["QSF"] and runs["QSF"].keys() == runs["DocPsg"].keys()
            params = LmParams(pt["mu"])
            for qid, got in runs["QSF"].items():
                query = queries[qid]
                c_init = retrieve_lm(query, index, LmParams(config.init_mu), config.doc_cutoff)
                doc_ids = sorted(c_init.ids())
                passages = {
                    d: segment(store.get(d), SegmentationParams(config.window_len))
                    for d in doc_ids
                }
                args = (query, store, index, doc_ids, passages, params)
                k = config.psg_cutoff
                assert got.entries == rank_qsf(*args, pt["qsf"], k=k).entries
                assert runs["PLM"][qid].entries == rank_plm(
                    *args, pt["sigma"], pt["lam"], pt["beta"], k=k
                ).entries
                assert runs["DocPsg"][qid].entries == rank_docpsg(*args, pt["docpsg"]).entries


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

    def test_fpd_grid_scores_a_query_without_candidates_as_the_empty_run(self, tmp_path):
        # A validation query with no candidates has an empty FPD model ranking
        # and an empty c_ltr; its metric is the empty run's at every point.
        from psgrank import experiment
        from psgrank.evaluation import CvPlan
        from psgrank.rank import RankedList

        paths = _tiny_corpus(tmp_path)
        extra = {
            "topics": "qxx\tunmatchableterm\n", "doc_qrels": "qxx 0 doc0000 1\n",
            "psg_qrels": "qxx\tdoc0000\t0\t30\n",
        }
        for name, line in extra.items():
            path = tmp_path / f"{name}_plus"
            path.write_text(Path(paths[name]).read_text() + line)
            paths[name] = path
        config = _tiny_config(paths, ["FPD"])
        pipe = experiment._Pipeline.load(config)
        folds = [f for f in CvPlan(tuple(sorted(pipe.queries)), seed=config.seed).folds()
                 if "qxx" in f[2]]
        assert folds
        runner = experiment._FoldRunner(pipe, folds[0])
        runner.prepare(["FPD"])
        ranking = runner._model_ranking(experiment._METHODS["FPD"], "qxx", {}, None)
        assert ranking == RankedList("qxx", ()) and runner.c_ltr("qxx") == ranking
        points = list(experiment._grid_points(config, experiment._METHODS["FPD"].grid))
        empty = pipe.doc_metric(ranking)
        assert empty == 0.0
        assert runner._grid_metrics("FPD", "qxx", points, ranking) == [empty] * len(points)
        assert runner.run_method("FPD", "qxx") == ranking
        report = run_experiment(config, tmp_path / "out")
        assert "qxx" in report.manifest["queries"]
        qxx = next(r for r in report.per_query if r["query_id"] == "qxx")
        assert qxx["ap"] == 0.0

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

    def test_model_files_keep_the_setting_types(self, tmp_path):
        # A trainer_params value takes its default's type, so an integer
        # learning_rate is written 1.0; an svm_c point is passed on as given.
        paths = _tiny_corpus(tmp_path)
        config = _tiny_config(
            paths, ["init-LTR"], grids={**_TINY_GRIDS, "svm_c": [1]},
            trainer_params={"epochs": 20, "learning_rate": 1},
        )
        run_experiment(config, tmp_path / "out")
        models = sorted((tmp_path / "out" / "models").rglob("*.json"))
        assert models
        for path in models:
            text = path.read_text()
            assert '"c": 1,\n' in text and '"learning_rate": 1.0,\n' in text, path
