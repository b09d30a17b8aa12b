import json

import pytest

from conftest import write_jsonl
from psgrank.cli import main
from psgrank.synthetic import SyntheticSpec, generate


@pytest.fixture
def corpus_dir(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(
        path,
        [
            {"id": "d1", "text": "zebra yak crane zebra stork"},
            {"id": "d2", "text": "crane finch robin heron stork"},
            {"id": "d3", "text": "zebra nests high in trees"},
        ],
    )
    return tmp_path


def _index(tmp_path, corpus="corpus.jsonl"):
    rc = main(
        ["--workdir", str(tmp_path), "index", "--corpus", corpus, "--out", "store"]
    )
    assert rc == 0
    return tmp_path / "store"


class TestIndexCommand:
    def test_prints_counts_and_writes_manifest(self, corpus_dir, capsys):
        store = _index(corpus_dir)
        out = capsys.readouterr().out
        assert "documents: 3" in out
        assert (store / "manifest.json").exists()
        assert (store / "index.json").exists()

    def test_missing_file_exit_one(self, tmp_path, capsys):
        rc = main(["--workdir", str(tmp_path), "index", "--corpus", "nope.jsonl", "--out", "s"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_rerun_identical_manifest(self, corpus_dir):
        _index(corpus_dir)
        first = (corpus_dir / "store" / "manifest.json").read_bytes()
        _index(corpus_dir)
        assert (corpus_dir / "store" / "manifest.json").read_bytes() == first


class TestSegmentCommand:
    def test_writes_table(self, corpus_dir, capsys):
        _index(corpus_dir)
        rc = main(
            [
                "--workdir", str(corpus_dir), "segment", "--store", "store",
                "--length", "2", "--out", "passages.tsv",
            ]
        )
        assert rc == 0
        lines = (corpus_dir / "passages.tsv").read_text().splitlines()
        assert lines[0].startswith("passage_id")
        assert len(lines) > 3


class TestFeaturesAndTrain:
    def test_doc_features_to_model(self, corpus_dir, capsys):
        _index(corpus_dir)
        topics = corpus_dir / "topics.tsv"
        topics.write_text("q1\tzebra crane\nq2\tstork heron\n")
        qrels = corpus_dir / "qrels.txt"
        qrels.write_text("q1 0 d1 1\nq1 0 d2 0\nq2 0 d2 1\nq2 0 d1 0\n")
        rc = main(
            [
                "--workdir", str(corpus_dir), "features", "--store", "store",
                "--topics", "topics.tsv", "--kind", "doc", "--qrels", "qrels.txt",
                "--out", "feats.txt", "--normalize", "--k-docs", "10",
            ]
        )
        assert rc == 0
        assert (corpus_dir / "feats.txt.schema.json").exists()
        rc = main(
            [
                "--workdir", str(corpus_dir), "train", "--features", "feats.txt",
                "--trainer", "pairwise_hinge", "--out", "model.json",
            ]
        )
        assert rc == 0
        model = json.loads((corpus_dir / "model.json").read_text())
        assert model["trainer"] == "pairwise_hinge"
        assert len(model["weights"]) == 6

    def test_psg_features(self, corpus_dir):
        _index(corpus_dir)
        (corpus_dir / "topics.tsv").write_text("q1\tzebra crane\n")
        rc = main(
            [
                "--workdir", str(corpus_dir), "features", "--store", "store",
                "--topics", "topics.tsv", "--kind", "psg", "--out", "pfeats.txt",
                "--length", "2", "--k-docs", "10",
            ]
        )
        assert rc == 0
        lines = (corpus_dir / "pfeats.txt").read_text().splitlines()
        assert all("qid:q1" in line for line in lines)


class TestEvalCommand:
    def test_perfect_run_map_one(self, tmp_path, capsys):
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 d1 1\nq1 0 d2 1\n")
        run = tmp_path / "run.trec"
        run.write_text("q1 Q0 d1 1 2.0 t\nq1 Q0 d2 2 1.0 t\n")
        rc = main(
            ["--workdir", str(tmp_path), "eval", "--run", "run.trec", "--qrels", "qrels.txt"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "map: 1.0000" in out

    def test_empty_run_all_zeros(self, tmp_path, capsys):
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 d1 1\n")
        run = tmp_path / "run.trec"
        run.write_text("q1 Q0 dX 1 1.0 t\n")
        rc = main(
            [
                "--workdir", str(tmp_path), "eval", "--run", "run.trec",
                "--qrels", "qrels.txt", "--json",
            ]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["aggregate"]["map"] == 0.0
        assert data["aggregate"]["mean_p10"] == 0.0

    def test_char_mode_requires_store(self, tmp_path, capsys):
        (tmp_path / "qrels.tsv").write_text("q1\td1\t0\t10\n")
        (tmp_path / "run.trec").write_text("q1 Q0 d1#0 1 1.0 t\n")
        rc = main(
            [
                "--workdir", str(tmp_path), "eval", "--run", "run.trec",
                "--qrels", "qrels.tsv", "--mode", "char_focused",
            ]
        )
        assert rc == 1
        assert "store" in capsys.readouterr().err


class TestTtestCommand:
    def test_compares_two_runs(self, tmp_path, capsys):
        qrels = tmp_path / "qrels.txt"
        qrels.write_text(
            "\n".join(f"q{i} 0 d{i} 1\nq{i} 0 x{i} 0" for i in range(5)) + "\n"
        )
        run_a = tmp_path / "a.trec"
        run_a.write_text(
            "".join(f"q{i} Q0 x{i} 1 2.0 a\nq{i} Q0 d{i} 2 1.0 a\n" for i in range(5))
        )
        run_b = tmp_path / "b.trec"
        run_b.write_text(
            "".join(
                (f"q{i} Q0 d{i} 1 2.0 b\nq{i} Q0 x{i} 2 1.0 b\n")
                if i < 4
                else (f"q{i} Q0 x{i} 1 2.0 b\nq{i} Q0 d{i} 2 1.0 b\n")
                for i in range(5)
            )
        )
        rc = main(
            [
                "--workdir", str(tmp_path), "ttest", "--run-a", "a.trec",
                "--run-b", "b.trec", "--qrels", "qrels.txt",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "queries: 5" in out and "t:" in out and "significant:" in out


def _run_config(tmp_path, methods, **overrides):
    spec = SyntheticSpec(
        n_docs=32, n_queries=4, doc_tokens=60, window_len=20,
        relevant_per_query=3, distractors_per_query=3, vocab_size=200, seed=3,
    )
    paths = generate(spec, tmp_path / "data")
    config = {
        "corpus": str(paths["corpus"]),
        "topics": str(paths["topics"]),
        "doc_qrels": str(paths["doc_qrels"]),
        "psg_qrels": str(paths["psg_qrels"]),
        "methods": methods,
        "window_len": 20,
        "seed": 2,
        "grids": {
            "mu": [1500.0], "svm_c": [0.01], "alpha": [0.0, 1.0], "nu": [60.0],
            "qsf_lambda": [0.4], "docpsg_lambda": [0.4], "plm_sigma": [50.0],
            "plm_lambda": [0.4], "plm_beta": [0.4], "sdm_weights": [[0.8, 0.1, 0.1]],
        },
        "trainer_params": {"epochs": 40},
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestRunCommand:
    def test_lm_run_caps_at_cutoff(self, tmp_path, capsys):
        config_path = _run_config(tmp_path, ["LM"], doc_cutoff=5)
        rc = main(["--workdir", str(tmp_path), "run", "--config", "config.json",
                   "--out", "out"])
        assert rc == 0
        lines = (tmp_path / "out" / "runs" / "LM.trec").read_text().splitlines()
        per_query = {}
        for line in lines:
            per_query.setdefault(line.split()[0], []).append(line)
        assert all(len(v) <= 5 for v in per_query.values())

    def test_jpds_emits_models_and_report(self, tmp_path):
        _run_config(tmp_path, ["JPDs"])
        rc = main(["--workdir", str(tmp_path), "run", "--config", "config.json",
                   "--out", "out"])
        assert rc == 0
        out = tmp_path / "out"
        assert (out / "report.json").exists()
        model_dirs = list((out / "models").iterdir())
        assert len(model_dirs) == 4
        assert all((d / "JPDs.json").exists() for d in model_dirs)

    def test_unknown_method_exit_one(self, tmp_path, capsys):
        config_path = _run_config(tmp_path, ["Wat"])
        rc = main(["--workdir", str(tmp_path), "run", "--config", "config.json",
                   "--out", "out"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "Wat" in err and "JPDs" in err  # names allowed values

    def test_wrong_config_types_exit_one_listing_each(self, tmp_path, capsys):
        _run_config(
            tmp_path, ["LM"], window_len="150", doc_cutoff="5",
            grids={"sdm_weights": [[0.5, 0.5, 0.5]]},
        )
        rc = main(["--workdir", str(tmp_path), "run", "--config", "config.json",
                   "--out", "out"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "window_len" in err and "doc_cutoff" in err and "[0.5, 0.5, 0.5]" in err
        assert not (tmp_path / "out").exists()

    def test_methods_string_exit_one(self, tmp_path, capsys):
        _run_config(tmp_path, "JPDs")
        rc = main(["--workdir", str(tmp_path), "run", "--config", "config.json",
                   "--out", "out"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "methods must be a list of method names, got 'JPDs'" in err
        assert "'J'" not in err
        assert not (tmp_path / "out").exists()

    def test_trainer_param_types_and_grid_ranges_exit_one(self, tmp_path, capsys):
        grids = {"mu": [-5.0], "alpha": [5.0], "plm_sigma": [0.0]}
        _run_config(tmp_path, ["JPDs"], trainer_params={"epochs": "abc"}, grids=grids)
        rc = main(["--workdir", str(tmp_path), "run", "--config", "config.json",
                   "--out", "out"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        for part in ("'epochs'", "'mu' point -5.0", "'alpha' point 5.0", "'plm_sigma' point 0.0"):
            assert part in err, part
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides,problem",
        [
            ({"grids": [1]}, "grids must be a JSON object, got [1]"),
            ({"trainer_params": 5}, "trainer_params must be a JSON object, got 5"),
            ({"grids": "mu"}, "grids must be a JSON object, got 'mu'"),
        ],
    )
    def test_non_object_grids_or_trainer_params_exit_one(
        self, tmp_path, capsys, overrides, problem
    ):
        _run_config(tmp_path, ["JPDs"], **overrides)
        rc = main(["--workdir", str(tmp_path), "run", "--config", "config.json",
                   "--out", "out"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert problem in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("body", ["[1]", "5"])
    def test_non_object_config_exit_one(self, tmp_path, capsys, body):
        (tmp_path / "config.json").write_text(body)
        rc = main(["--workdir", str(tmp_path), "run", "--config", "config.json",
                   "--out", "out"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"config must be a JSON object, got {body}" in err
        assert not (tmp_path / "out").exists()

    def test_singular_method_not_a_list_exit_one(self, tmp_path, capsys):
        config = json.loads(_run_config(tmp_path, ["LM"]).read_text())
        del config["methods"]
        config["method"] = 5
        (tmp_path / "config.json").write_text(json.dumps(config))
        rc = main(["--workdir", str(tmp_path), "run", "--config", "config.json",
                   "--out", "out"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "methods must be a list of method names, got 5" in err
        assert not (tmp_path / "out").exists()

    def test_workers_key_and_flag_rejected(self, tmp_path, capsys):
        _run_config(tmp_path, ["LM"], workers=2)
        rc = main(["--workdir", str(tmp_path), "run", "--config", "config.json",
                   "--out", "out"])
        assert rc == 1
        assert "unknown config keys: ['workers']" in capsys.readouterr().err
        _run_config(tmp_path, ["LM"])
        with pytest.raises(SystemExit) as exc:
            main(["--workdir", str(tmp_path), "run", "--config", "config.json",
                  "--out", "out", "--workers", "2"])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()


class TestAblateCommand:
    def test_constant_feature_is_metric_neutral(self, tmp_path, capsys):
        # No embedding table is configured, so W2V is constantly zero and
        # removing it cannot move any metric.
        _run_config(tmp_path, ["JPDs"])
        rc = main(
            [
                "--workdir", str(tmp_path), "ablate", "--config", "config.json",
                "--feature", "psg.W2V", "--out", "abl",
            ]
        )
        assert rc == 0
        data = json.loads((tmp_path / "abl" / "ablation.json").read_text())
        assert data["methods"]["JPDs"]["delta"] == pytest.approx(0.0, abs=1e-12)
        # Schema-enforced: no trained model in the ablated run reads W2V.
        for model_path in (tmp_path / "abl" / "ablated" / "models").rglob("*.json"):
            model = json.loads(model_path.read_text())
            assert not any("W2V" in f for f in model["schema"]["features"]), model_path

    def test_feature_free_methods_rejected(self, tmp_path, capsys):
        _run_config(tmp_path, ["LM", "QSF"])
        rc = main(
            [
                "--workdir", str(tmp_path), "ablate", "--config", "config.json",
                "--feature", "psg.ESA", "--out", "abl",
            ]
        )
        assert rc == 1
        assert "feature-based" in capsys.readouterr().err

    def test_unknown_feature_lists_schema(self, tmp_path, capsys):
        _run_config(tmp_path, ["JPDs"])
        rc = main(
            [
                "--workdir", str(tmp_path), "ablate", "--config", "config.json",
                "--feature", "NoSuchFeature", "--out", "abl",
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "NoSuchFeature" in err and "PsgQuerySim" in err

    def test_removing_only_signal_drops_map(self, tmp_path):
        # Single-term queries zero the bigram features; distractors carry
        # fewer term occurrences, so the unigram component is the only
        # informative document feature.
        spec = SyntheticSpec(
            n_docs=24, n_queries=4, doc_tokens=40, window_len=40,
            relevant_per_query=3, distractors_per_query=3, query_terms=1,
            occurrences_per_term=8, distractor_occurrences=3,
            vocab_size=150, seed=9,
        )
        paths = generate(spec, tmp_path / "data")
        config = {
            "corpus": str(paths["corpus"]),
            "topics": str(paths["topics"]),
            "doc_qrels": str(paths["doc_qrels"]),
            "psg_qrels": str(paths["psg_qrels"]),
            "methods": ["init-LTR"],
            "window_len": 40,
            "seed": 4,
            "grids": {
                "mu": [1500.0], "svm_c": [0.1], "alpha": [0.5], "nu": [60.0],
                "qsf_lambda": [0.4], "docpsg_lambda": [0.4], "plm_sigma": [50.0],
                "plm_lambda": [0.4], "plm_beta": [0.4],
                "sdm_weights": [[0.8, 0.1, 0.1]],
            },
            "trainer_params": {"epochs": 60},
        }
        (tmp_path / "config.json").write_text(json.dumps(config))
        rc = main(
            [
                "--workdir", str(tmp_path), "ablate", "--config", "config.json",
                "--feature", "doc.SdmUnigrams", "--out", "abl",
            ]
        )
        assert rc == 0
        data = json.loads((tmp_path / "abl" / "ablation.json").read_text())
        entry = data["methods"]["init-LTR"]
        assert entry["ablated"] < entry["baseline"]


class TestHelp:
    def test_lists_all_commands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for cmd in ("index", "segment", "features", "train", "run", "eval", "ablate", "ttest"):
            assert cmd in out
