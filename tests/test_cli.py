import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from conftest import STORE_DAMAGES, noisy_corpus, write_jsonl
from psgrank import cli, index
from psgrank.cli import main
from psgrank.corpus import CorpusStore
from psgrank.experiment import ExperimentConfig, _Pipeline
from psgrank.features import DOC_SCHEMA, PSG_SCHEMA, minmax_normalize, read_svmlight
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


# sha256 of each store file `psgrank index` writes for the CI tiny corpus.
TINY_STORE_DIGESTS = {
    "docs.jsonl": "a3081e6b5167e538b7cc0d711736d58753b2d0f0371caa22d3ff14544fb7342c",
    "manifest.json": "f270cdd5c8a29989f66bc2158f12714bc13361953b37babe4ed2881a1d9a2fce",
    "stopword_ids.i16": "3c484687a7861eab4860efebae6f1cbcb4b29ef585df0e72b4dc92e787d990a6",
    "term_ids.i32": "604ca76b741b912d57f7d399532149960d2b166e11e4793bc45bcc6208935798",
    "vocabulary.txt": "fc82a787b5c1f0e5a68c6d562e302ce6e94cbddfccd957fe7b6566e2ea827b93",
}


class TestIndexCommand:
    def test_prints_counts_and_writes_manifest(self, corpus_dir, capsys):
        store = _index(corpus_dir)
        assert capsys.readouterr().out.splitlines() == [
            "documents: 3", "tokens: 15", "terms: 11", f"manifest: {store / 'manifest.json'}"
        ]
        assert {p.name for p in store.iterdir()} == {
            "manifest.json", "docs.jsonl", "term_ids.i32", "stopword_ids.i16", "vocabulary.txt"
        }

    def test_missing_file_exit_one(self, tmp_path, capsys):
        rc = main(["--workdir", str(tmp_path), "index", "--corpus", "nope.jsonl", "--out", "s"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_empty_corpus_exits_one_and_writes_nothing(self, tmp_path, capsys):
        (tmp_path / "empty.jsonl").write_text("")
        rc = main(["--workdir", str(tmp_path), "index", "--corpus", "empty.jsonl", "--out", "s"])
        assert rc == 1
        assert "empty.jsonl: holds no documents" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_rerun_identical_manifest(self, corpus_dir):
        _index(corpus_dir)
        first = (corpus_dir / "store" / "manifest.json").read_bytes()
        _index(corpus_dir)
        assert (corpus_dir / "store" / "manifest.json").read_bytes() == first

    def test_tiny_store_bytes(self, tiny):
        root, _ = tiny
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (root / "store").iterdir()
        }
        assert digests == TINY_STORE_DIGESTS

    @pytest.mark.parametrize("corpus", ["tiny", "unicode"])
    def test_terms_are_the_indexed_stems_without_an_index(
        self, request, tmp_path, monkeypatch, capsys, corpus
    ):
        """`terms:` counts the distinct stems of the store's texts, as many as
        the index built from the store holds, and no index is built."""
        if corpus == "tiny":
            path = request.getfixturevalue("tiny")[1]["corpus"]
        else:
            texts = [
                "Caf\u00e9 na\u00efve r\u00e9sum\u00e9s \u65e5\u672c 42", "The of and AN the",
                "", "a\U0001f600b \u00a0 cats\u3000Cat", "\u2014!?", "dogs DOG dogged 42",
            ]
            path = tmp_path / "c.jsonl"
            write_jsonl(path, [{"id": f"d{i}", "text": t} for i, t in enumerate(texts)])

        def no_index(store):
            raise AssertionError("psgrank index built an index")

        with monkeypatch.context() as patched:
            for module in (cli, index):
                patched.setattr(module, "build_index", no_index)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # documents with no tokens
                assert main(["index", "--corpus", str(path), "--out", str(tmp_path / "s")]) == 0
        terms = capsys.readouterr().out.splitlines()[2]
        expected = len(index.build_index(CorpusStore.load(tmp_path / "s")).collection_term_counts)
        assert terms == f"terms: {expected}"


class TestFeaturesRebuildTheIndex:
    """The index comes from the store: `psgrank index` writes no index.json,
    and one planted in the store is never read."""

    @pytest.mark.parametrize("kind", ["doc", "psg"])
    def test_same_dump_whatever_index_json_holds(self, corpus_dir, kind):
        store = _index(corpus_dir)
        (corpus_dir / "topics.tsv").write_text("q1\tzebra crane\nq2\tstork heron\n")
        index_json, dumps = store / "index.json", []
        assert not index_json.exists()
        for edit in (
            lambda: None,
            lambda: index_json.write_bytes(b"\xff junk {"),
            lambda: index_json.write_text("[]"),
        ):
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


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """The CI tiny corpus (30-token windows) and its store."""
    root = tmp_path_factory.mktemp("tiny")
    spec = SyntheticSpec(
        n_docs=48, n_queries=6, doc_tokens=90, window_len=30,
        relevant_per_query=4, distractors_per_query=4, vocab_size=300, seed=5,
    )
    paths = generate(spec, root / "data")
    assert main(["index", "--corpus", str(paths["corpus"]), "--out", str(root / "store")]) == 0
    return root, paths


class TestFeaturesDumpTheRunsStaging:
    """`psgrank features` writes the rows and grades a run with the same
    settings stages, in retrieval order."""

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("kind", ["doc", "psg"])
    def test_rows_are_the_pipelines(self, tiny, kind, normalize):
        root, paths = tiny
        out = root / f"{kind}-{normalize}.txt"
        rc = main(
            [
                "features", "--store", str(root / "store"), "--topics", str(paths["topics"]),
                "--kind", kind, "--qrels", str(paths[f"{kind}_qrels"]), "--length", "30",
                "--mu", "2500", "--init-mu", "500", "--k-docs", "12", "--out", str(out),
                *(["--normalize"] if normalize else []),
            ]
        )
        assert rc == 0
        config = ExperimentConfig.from_dict(
            {
                **{name: str(path) for name, path in paths.items()},
                "methods": ["LM", "QSF"], "window_len": 30, "init_mu": 500.0, "doc_cutoff": 12,
            }
        )
        pipe = _Pipeline.load(config)
        dump = read_svmlight(out, DOC_SCHEMA if kind == "doc" else PSG_SCHEMA)
        assert [matrix.query_id for matrix, _ in dump] == list(pipe.queries)
        for matrix, grades in dump:
            qid = matrix.query_id
            data = pipe.query_data(qid)
            order = data.c_init.ids()
            if kind == "psg":
                order = [p.passage_id for d in order for p in data.passages_by_doc[d]]
            assert list(matrix.item_ids) == order and len(order) > 1
            staged = pipe.doc_vectors(qid, 2500.0) if kind == "doc" else pipe.psg_vectors(qid, 2500.0)
            want = (minmax_normalize(staged) if normalize else staged).take(order)
            assert [[x.hex() for x in row] for row in matrix.values.tolist()] == [
                [x.hex() for x in row] for row in want.values.tolist()
            ]
            judged = pipe.grades(kind, qid)
            assert grades == [judged.get(i, 0) for i in order] and any(grades)


class TestFeaturesFlagChecks:
    """A bad smoothing, depth or window flag exits 1 naming it, before the
    store is read and without writing anything."""

    @pytest.mark.parametrize("kind", ["doc", "psg"])
    @pytest.mark.parametrize(
        "flag, value, problem",
        [
            ("--mu", "-1", "mu must be >= 0"),
            ("--mu", "nan", "mu must be >= 0"),
            ("--init-mu", "-5", "mu must be >= 0"),
            ("--mu", "inf", "mu must be >= 0 and finite, got inf"),
            ("--init-mu", "inf", "mu must be >= 0 and finite, got inf"),
            ("--k-docs", "0", "doc_cutoff must be >= 1"),
            ("--length", "0", "window_len must be >= 1"),
        ],
    )
    def test_bad_flag_exits_one_naming_it(self, tiny, tmp_path, capsys, kind, flag, value, problem):
        root, paths = tiny
        for store in (root / "store", tmp_path / "no-store"):
            rc = main(
                [
                    "features", "--store", str(store), "--topics", str(paths["topics"]),
                    "--kind", kind, "--out", str(tmp_path / "feats.txt"), flag, value,
                ]
            )
            err = capsys.readouterr().err
            assert rc == 1, err
            assert f"error: {flag}: " in err and problem in err
            assert "Traceback" not in err
            assert not list(tmp_path.iterdir())

    def test_every_bad_flag_listed(self, tiny, tmp_path, capsys):
        root, paths = tiny
        rc = main(
            [
                "features", "--store", str(root / "store"), "--topics", str(paths["topics"]),
                "--kind", "doc", "--out", str(tmp_path / "feats.txt"),
                "--mu", "-1", "--init-mu", "-1", "--k-docs", "0", "--length", "0",
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        for flag in ("--mu", "--init-mu", "--k-docs", "--length"):
            assert f"{flag}: " in err
        assert not list(tmp_path.iterdir())


class TestCommandFlagChecks:
    """segment, eval and ttest check their flags as features does: a bad one
    exits 1 naming it, before any input is read, writing nothing."""

    @pytest.mark.parametrize(
        "argv, flag, problem",
        [
            (["segment", "--store", "{store}", "--length", "0", "--out", "{out}"],
             "--length", "window_len must be >= 1"),
            (["eval", "--run", "{run}", "--qrels", "{doc_qrels}", "--cutoff", "0"],
             "--cutoff", "cutoff must be >= 1"),
            (["eval", "--run", "{run}", "--qrels", "{psg_qrels}", "--mode", "char_focused",
              "--store", "{store}", "--length", "0"],
             "--length", "window_len must be >= 1"),
            (["ttest", "--run-a", "{run}", "--run-b", "{run}", "--qrels", "{doc_qrels}",
              "--cutoff", "0"],
             "--cutoff", "cutoff must be >= 1"),
        ],
    )
    def test_bad_flag_exits_one_naming_it(self, tiny, tmp_path, capsys, argv, flag, problem):
        root, paths = tiny
        run = root / "flag-check.trec"
        run.write_text("q01 Q0 doc0001 1 1.0 t\n")
        present = {
            "store": root / "store", "run": run,
            "doc_qrels": paths["doc_qrels"], "psg_qrels": paths["psg_qrels"],
        }
        missing = {name: tmp_path / f"no-{name}" for name in present}
        out = tmp_path / "out"
        for inputs in (present, missing):
            rc = main([a.format(out=out, **inputs) for a in argv])
            err = capsys.readouterr().err
            assert rc == 1, err
            assert f"error: {flag}: " in err and problem in err
            assert "Traceback" not in err
            assert not out.exists()

    def test_every_bad_eval_flag_listed(self, tmp_path, capsys):
        rc = main(
            [
                "--workdir", str(tmp_path), "eval", "--run", "no.trec", "--qrels", "no.tsv",
                "--mode", "char_focused", "--store", "no-store", "--length", "0",
                "--cutoff", "-3",
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "--cutoff: cutoff must be >= 1, got -3" in err
        assert "--length: window_len must be >= 1, got 0" in err


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

    @pytest.mark.parametrize("damage", list(STORE_DAMAGES))
    def test_damaged_store_analysis(self, corpus_dir, capsys, damage):
        edit, problem = STORE_DAMAGES[damage]
        edit(_index(corpus_dir))
        argv = ["--workdir", str(corpus_dir), "segment", "--store", "store", "--out", "p.tsv"]
        self._fails(capsys, argv, problem)
        assert not (corpus_dir / "p.tsv").exists()

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
            # A non-finite value was once left to the feature matrix, whose
            # error named neither the file nor the line.
            (
                GOOD_ROWS + "0 qid:q1 1:nan # c\n", SIDECAR, 2,
                "feats.txt:3: malformed SVMlight row: feature 1 value 'nan' is not finite",
            ),
            (
                GOOD_ROWS + "0 qid:q1 2:-inf # c\n", SIDECAR, 2,
                "feats.txt:3: malformed SVMlight row: feature 2 value '-inf' is not finite",
            ),
            (GOOD_ROWS, {"features": ["f0", "f1"]}, 1, '"name" string'),
            (GOOD_ROWS, {"name": "s"}, 1, '"features" list'),
            (
                GOOD_ROWS, '{"name": "s",\n "features": [}\n', 1,
                "feats.txt.schema.json:2:15: not valid JSON",
            ),
        ],
        ids=[
            "index-0", "index-past-schema", "repeated-item", "nan", "inf", "sidecar-without-name",
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

    def test_hinge_model_records_the_default_max_pairs(self, tmp_path):
        # max_pairs is no flag of `train`; the trainer's default applies.
        (tmp_path / "feats.txt").write_text(self.GOOD_ROWS)
        (tmp_path / "feats.txt.schema.json").write_text(json.dumps(self.SIDECAR))
        rc = main(
            ["--workdir", str(tmp_path), "train", "--features", "feats.txt", "--out", "m.json"]
        )
        assert rc == 0
        hyperparams = json.loads((tmp_path / "m.json").read_text())["hyperparams"]
        assert hyperparams == {
            "c": 0.01, "epochs": 200, "learning_rate": 0.5, "max_pairs": 1000000, "seed": 0,
        }

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
                 "grid 'mu' point -5.0: mu must be >= 0 and finite, got -5.0"],
            ),
            (
                {"init_mu": float("inf"), "grids": {"nu": [float("inf")]}},
                ["init_mu: mu must be >= 0 and finite, got inf",
                 "grid 'nu' point inf: nu must be >= 0 and finite, got inf"],
            ),
            (
                {"grids": {"nu": [60.0, 1e17]}},
                ["grid 'nu' point 1e+17: nu must be below 2**53 (9.007e15), got 1e+17"],
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

    def test_unknown_feature_rejected_before_the_baseline(self, tmp_path, capsys):
        _run_config(tmp_path, ["LM", "JPDs"])
        rc = main(
            [
                "--workdir", str(tmp_path), "ablate", "--config", "config.json",
                "--feature", "psg.W2V", "--feature", "psg.Nope", "--out", "abl",
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "'psg.Nope'" in err and "'psg.W2V'" not in err and "Traceback" not in err
        assert not (tmp_path / "abl").exists()

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


def masked_arrays_after_chain(root: str) -> tuple[list[int], bool]:
    """Each exit code of a run with every passage feature (ESA included)
    and of the store chain over a noisy corpus in ``root``, and whether
    ``numpy.ma`` was imported by then."""
    root = Path(root)
    paths = {name: str(path) for name, path in noisy_corpus(root / "data", n_queries=4).items()}
    config = dict(
        paths, methods=["LM", "QSF", "JPDs"], window_len=30, seed=11,
        grids={"mu": [1500.0], "svm_c": [0.01]},
    )
    (root / "run.json").write_text(json.dumps(config))
    steps = [
        ["run", "--config", "run.json", "--out", "out"],
        ["index", "--corpus", paths["corpus"], "--out", "store"],
        ["segment", "--store", "store", "--length", "30", "--out", "store/passages.tsv"],
        [
            "features", "--store", "store", "--topics", paths["topics"], "--kind", "psg",
            "--length", "30", "--normalize", "--qrels", paths["psg_qrels"], "--out", "psg.txt",
        ],
        [
            "features", "--store", "store", "--topics", paths["topics"], "--kind", "doc",
            "--normalize", "--qrels", paths["doc_qrels"], "--out", "doc.txt",
        ],
        ["train", "--features", "psg.txt", "--trainer", "pairwise_hinge", "--out", "h.json"],
        ["train", "--features", "doc.txt", "--trainer", "coordinate_ascent", "--out", "c.json"],
        [
            "eval", "--run", "out/runs/QSF.trec", "--qrels", paths["psg_qrels"],
            "--mode", "char_focused", "--store", "store", "--length", "30",
        ],
        [
            "ttest", "--run-a", "out/runs/LM.trec", "--run-b", "out/runs/JPDs.trec",
            "--qrels", paths["doc_qrels"],
        ],
    ]
    codes = [main(["--workdir", str(root), *step]) for step in steps]
    return codes, "numpy.ma" in sys.modules


class TestNoMaskedArrays:
    """numpy.ma costs several milliseconds to import, and a plain np.unique
    imports it; no run or CLI command needs it."""

    def test_run_and_store_chain_leave_numpy_ma_unloaded(self, tmp_path):
        tests_dir = Path(__file__).resolve().parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(tests_dir.parent / "src"), str(tests_dir), env.get("PYTHONPATH", "")]
        )
        code = (
            "import json, sys, test_cli; "
            "print(json.dumps(test_cli.masked_arrays_after_chain(sys.argv[1])))"
        )
        child = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)], cwd=tests_dir, env=env,
            capture_output=True, text=True, check=True,
        )
        codes, loaded = json.loads(child.stdout.splitlines()[-1])
        assert codes == [0] * 9
        assert loaded is False


class TestHelp:
    def test_lists_all_commands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for cmd in ("index", "segment", "features", "train", "run", "eval", "ablate", "ttest"):
            assert cmd in out

    def test_train_lists_the_trainer_flags_in_order(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        out = capsys.readouterr().out
        flags = ["--c", "--epochs", "--learning-rate", "--restarts", "--max-passes"]
        assert [word for word in out.split() if word in flags] == flags
        assert "--max-pairs" not in out


class TestBenchmarkHooks:
    def test_traced_bench_finds_every_name_it_wraps(self):
        """benchmarks/spans.py wraps psgrank functions by module attribute,
        so each name it wraps must stay importable where it looks."""
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        code = "import spans; spans.install(spans.Tracer())"
        subprocess.run([sys.executable, "-c", code], cwd=root / "benchmarks", env=env, check=True)
