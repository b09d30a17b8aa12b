import json
import math
import os
import subprocess
import sys
from pathlib import Path

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


class TestFeaturesRebuildTheIndex:
    """The index comes from the store; index.json is never read."""

    @pytest.mark.parametrize("kind", ["doc", "psg"])
    def test_same_dump_whatever_index_json_holds(self, corpus_dir, kind):
        store = _index(corpus_dir)
        (corpus_dir / "topics.tsv").write_text("q1\tzebra crane\nq2\tstork heron\n")
        index_json, dumps = store / "index.json", []
        for edit in (lambda: None, index_json.unlink, lambda: index_json.write_text("[]")):
            edit()
            rc = main(
                [
                    "--workdir", str(corpus_dir), "features", "--store", "store",
                    "--topics", "topics.tsv", "--kind", kind, "--out", "feats.txt",
                    "--length", "2", "--normalize",
                ]
            )
            assert rc == 0
            dumps.append((corpus_dir / "feats.txt").read_bytes())
        assert dumps[0] and dumps == [dumps[0]] * 3


class TestDamagedInputs:
    """A damaged corpus, store or qrels file exits 1 naming it, without a traceback."""

    def _fails(self, capsys, argv, where):
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and where in err and "Traceback" not in err

    def test_manifest_missing_a_field(self, corpus_dir, capsys):
        store = _index(corpus_dir)
        manifest = json.loads((store / "manifest.json").read_text())
        del manifest["stopwords"]
        (store / "manifest.json").write_text(json.dumps(manifest))
        argv = ["--workdir", str(corpus_dir), "segment", "--store", "store", "--out", "p.tsv"]
        self._fails(capsys, argv, "manifest.json: expected a JSON object")

    def test_docs_record_without_id(self, corpus_dir, capsys):
        store = _index(corpus_dir)
        lines = (store / "docs.jsonl").read_text().splitlines()
        lines[1] = json.dumps({"text": "crane"})
        (store / "docs.jsonl").write_text("\n".join(lines) + "\n")
        (corpus_dir / "topics.tsv").write_text("q1\tzebra crane\n")
        argv = [
            "--workdir", str(corpus_dir), "features", "--store", "store",
            "--topics", "topics.tsv", "--kind", "doc", "--out", "feats.txt",
        ]
        self._fails(capsys, argv, "docs.jsonl:2: record must carry 'id' and 'text'")

    def test_qrels_grade_not_an_integer(self, tmp_path, capsys):
        (tmp_path / "qrels.txt").write_text("q1 0 d1 1\nq1 0 d2 x\n")
        (tmp_path / "run.trec").write_text("q1 Q0 d1 1 2.0 t\n")
        argv = ["--workdir", str(tmp_path), "eval", "--run", "run.trec", "--qrels", "qrels.txt"]
        self._fails(capsys, argv, "qrels.txt:2: not an integer: 'x'")

    # A JSON escape such as "\ud800" decodes to a lone surrogate, which the
    # store's UTF-8 cannot hold.
    SURROGATE = "'id', 'text' and 'title' must not hold an unpaired surrogate, found {!r}"

    @pytest.mark.parametrize("field", ["id", "text", "title"])
    def test_lone_surrogate_in_corpus_index(self, tmp_path, capsys, field):
        record = {"id": "d2", "text": "crane stork", field: "crane \ud800 stork"}
        lines = [json.dumps({"id": "d1", "text": "zebra"}), json.dumps(record)]
        (tmp_path / "c.jsonl").write_text("\n".join(lines) + "\n")
        argv = ["--workdir", str(tmp_path), "index", "--corpus", "c.jsonl", "--out", "store"]
        self._fails(capsys, argv, "c.jsonl:2: " + self.SURROGATE.format("\ud800"))
        assert not (tmp_path / "store").exists()

    def test_lone_surrogate_in_corpus_run(self, tmp_path, capsys):
        _run_config(tmp_path, ["LM"])
        corpus = tmp_path / "data" / "corpus.jsonl"
        lines = corpus.read_text().splitlines()
        lines.append(json.dumps({"id": "bad", "text": "crane \udfff"}))
        corpus.write_text("\n".join(lines) + "\n")
        argv = ["--workdir", str(tmp_path), "run", "--config", "config.json", "--out", "out"]
        where = f"corpus.jsonl:{len(lines)}: " + self.SURROGATE.format("\udfff")
        self._fails(capsys, argv, where)


    def test_corpus_not_utf8_index(self, tmp_path, capsys):
        data = b'{"id": "d1", "text": "ok"}\n{"id": "d2", "text": "\xff"}\n'
        (tmp_path / "c.jsonl").write_bytes(data)
        argv = ["--workdir", str(tmp_path), "index", "--corpus", "c.jsonl", "--out", "store"]
        self._fails(capsys, argv, "c.jsonl:2: not UTF-8: byte 0xff at column 23")
        assert not (tmp_path / "store").exists()

    def test_char_focused_run_names_a_passage_the_segmentation_lacks(self, corpus_dir, capsys):
        store = _index(corpus_dir)
        (corpus_dir / "qrels.tsv").write_text("q1\td1\t0\t10\n")
        # d1 has 5 tokens: passages d1#0 to d1#2 at --length 2.
        (corpus_dir / "run.trec").write_text("q1 Q0 d1#0 1 2.0 t\nq1 Q0 d1#9 2 1.0 t\n")
        argv = [
            "--workdir", str(corpus_dir), "eval", "--run", "run.trec", "--qrels", "qrels.tsv",
            "--mode", "char_focused", "--store", "store", "--length", "2",
        ]
        where = f"query q1: run passage 'd1#9' is not a passage of {store} under --length 2"
        self._fails(capsys, argv, where + " --seg-mode fixed")
        # The same command on a run of known passages succeeds.
        (corpus_dir / "run.trec").write_text("q1 Q0 d1#0 1 2.0 t\n")
        assert main(argv) == 0


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


class TestTrainInputValidation:
    GOOD_ROWS = "1 qid:q1 1:0.5 2:0.25 # a\n0 qid:q1 1:0.0 2:1.0 # b\n"
    SIDECAR = {"name": "s", "features": ["f0", "f1"]}

    @pytest.mark.parametrize(
        "rows,sidecar,code,message",
        [
            # Index 0 once landed in the last feature, and training went on.
            (GOOD_ROWS + "0 qid:q1 0:0.2 # c\n", SIDECAR, 2, "feats.txt:3: malformed SVMlight"),
            (GOOD_ROWS + "0 qid:q1 3: # c\n", SIDECAR, 2, "index 3 outside 1..2"),
            # A repeated item once trained, and the grade map kept its last grade.
            (
                GOOD_ROWS + "2 qid:q1 1:0.1 # a\n", SIDECAR, 2,
                "feats.txt:3: malformed SVMlight row: item 'a' repeated in query 'q1'",
            ),
            (GOOD_ROWS, {"features": ["f0", "f1"]}, 1, '"name" string'),
            (GOOD_ROWS, {"name": "s"}, 1, '"features" list'),
            (
                GOOD_ROWS, '{"name": "s",\n "features": [}\n', 1,
                "feats.txt.schema.json:2:15: not valid JSON",
            ),
        ],
        ids=[
            "index-0", "index-past-schema", "repeated-item", "sidecar-without-name",
            "sidecar-without-features", "sidecar-not-json",
        ],
    )
    def test_bad_dump_or_sidecar_exits_without_traceback(
        self, tmp_path, capsys, rows, sidecar, code, message
    ):
        (tmp_path / "feats.txt").write_text(rows)
        if not isinstance(sidecar, str):
            sidecar = json.dumps(sidecar)
        (tmp_path / "feats.txt.schema.json").write_text(sidecar)
        rc = main(
            ["--workdir", str(tmp_path), "train", "--features", "feats.txt", "--out", "m.json"]
        )
        assert rc == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()


    @pytest.mark.parametrize(
        "flags,messages",
        [
            (["--c", "nan"], ["--c: c must be finite and >= 0, got nan"]),
            (["--c", "-1"], ["--c: c must be finite and >= 0, got -1.0"]),
            (["--epochs", "-3"], ["--epochs: epochs must be >= 1, got -3"]),
            (
                ["--learning-rate", "nan", "--max-passes", "-1", "--trainer", "coordinate_ascent"],
                ["--learning-rate: learning_rate must be finite and > 0, got nan",
                 "--max-passes: max_passes must be >= 0, got -1"],
            ),
        ],
        ids=["c-nan", "c-negative", "epochs-negative", "every-problem"],
    )
    def test_bad_trainer_setting_exits_one_naming_the_flag(self, tmp_path, capsys, flags, messages):
        (tmp_path / "feats.txt").write_text(self.GOOD_ROWS)
        (tmp_path / "feats.txt.schema.json").write_text(json.dumps(self.SIDECAR))
        rc = main(
            ["--workdir", str(tmp_path), "train", "--features", "feats.txt", "--out", "m.json"]
            + flags
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        for message in messages:
            assert message in err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_learning_rate_exits_one(self, tmp_path, capsys):
        rows = "1 qid:q1 1:1000.0 2:0.0 # a\n0 qid:q1 1:0.0 2:1.0 # b\n"
        (tmp_path / "feats.txt").write_text(rows)
        (tmp_path / "feats.txt.schema.json").write_text(json.dumps(self.SIDECAR))
        rc = main(
            ["--workdir", str(tmp_path), "train", "--features", "feats.txt", "--out", "m.json",
             "--learning-rate", "1e308"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "learning_rate 1e+308 overflows the weights before any epoch" in err
        assert "Traceback" not in err
        assert not (tmp_path / "m.json").exists()


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


    @pytest.mark.parametrize(
        "flags,problem",
        [(["--alpha", "5"], "alpha must lie in (0, 1), got 5.0"),
         (["--corrections", "0"], "corrections must be >= 1, got 0")],
    )
    def test_bad_parameters_rejected_before_reading_runs(self, tmp_path, capsys, flags, problem):
        # The run files do not exist: reading them would be a runtime error (exit 2).
        rc = main(
            ["--workdir", str(tmp_path), "ttest", "--run-a", "a.trec", "--run-b", "b.trec",
             "--qrels", "qrels.txt", *flags]
        )
        assert rc == 1
        assert capsys.readouterr().err == f"error: {problem}\n"


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

    def test_malformed_json_exit_one_naming_line_and_column(self, tmp_path, capsys):
        (tmp_path / "config.json").write_text('{"methods": [\n')
        rc = main(["--workdir", str(tmp_path), "run", "--config", "config.json",
                   "--out", "out"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "runtime error" not in err
        assert f"{tmp_path / 'config.json'}:2:1: not valid JSON: Expecting value" in err
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

    @pytest.mark.parametrize(
        "overrides,problems",
        [
            ({"ttest_alpha": "x"}, ["ttest_alpha must be a number, got 'x'"]),
            ({"ttest_alpha": 5}, ["ttest_alpha: alpha must lie in (0, 1), got 5"]),
            ({"ttest_corrections": "a"}, ["ttest_corrections must be an integer, got 'a'"]),
            ({"ttest_corrections": -3}, ["ttest_corrections: corrections must be >= 1, got -3"]),
            ({"ttest_corrections": 0}, ["ttest_corrections: corrections must be >= 1, got 0"]),
            ({"corpus": 5}, ["corpus must be a path, got 5"]),
            ({"corpus": None}, ["corpus must be a path, got None"]),
            ({"doc_qrels": 5}, ["doc_qrels must be a path, got 5"]),
            ({"embeddings": ["a"]}, ["embeddings must be a path, got ['a']"]),
            (
                {"corpus_format": "xml", "grids": {"mu": [-5.0]}},
                ["unknown corpus_format 'xml'; allowed: jsonl, trecweb",
                 "grid 'mu' point -5.0: mu must be >= 0, got -5.0"],
            ),
        ],
    )
    def test_bad_field_values_exit_one_before_any_work(
        self, tmp_path, capsys, overrides, problems
    ):
        _run_config(tmp_path, ["LM", "QSF"], **overrides)
        rc = main(["--workdir", str(tmp_path), "run", "--config", "config.json",
                   "--out", "out"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        for problem in problems:
            assert problem in err
        assert not (tmp_path / "out").exists()

    def test_trainer_settings_out_of_range_exit_one(self, tmp_path, capsys):
        # NaN c or rate once wrote nan scores, and negative epochs all-zero ones.
        _run_config(
            tmp_path, ["JPDs"], grids={"svm_c": [0.01, math.nan, -1.0]},
            trainer_params={
                "epochs": -3, "learning_rate": math.nan, "max_pairs": 0,
                "restarts": -1, "max_passes": -2,
            },
        )
        rc = main(["--workdir", str(tmp_path), "run", "--config", "config.json",
                   "--out", "out"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        for problem in (
            "grid 'svm_c' point nan: c must be finite and >= 0, got nan",
            "grid 'svm_c' point -1.0: c must be finite and >= 0, got -1.0",
            "trainer_params 'epochs': epochs must be >= 1, got -3",
            "trainer_params 'learning_rate': learning_rate must be finite and > 0, got nan",
            "trainer_params 'max_pairs': max_pairs must be >= 1, got 0",
            "trainer_params 'restarts': restarts must be >= 0, got -1",
            "trainer_params 'max_passes': max_passes must be >= 0, got -2",
        ):
            assert problem in err, problem
        assert "point 0.01" not in err
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

    def test_unreadable_config_is_a_runtime_error(self, tmp_path, capsys):
        (tmp_path / "config.json").mkdir()
        rc = main(["--workdir", str(tmp_path), "run", "--config", "config.json",
                   "--out", "out"])
        assert rc == 2
        assert "Is a directory" in capsys.readouterr().err
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


class TestBenchmarkHooks:
    def test_traced_bench_finds_every_name_it_wraps(self):
        """benchmarks/spans.py wraps psgrank functions by module attribute,
        so each name it wraps must stay importable where it looks."""
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        code = "import spans; spans.install(spans.Tracer())"
        subprocess.run([sys.executable, "-c", code], cwd=root / "benchmarks", env=env, check=True)
