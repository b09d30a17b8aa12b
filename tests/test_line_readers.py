"""Every reader of a line format reads its file through ``corpus.text_lines``:
lines end at \\n, \\r\\n or \\r and nowhere else, the file is strict UTF-8,
blank lines are skipped, and '#' lines follow the format's own rule."""

import json

import pytest

from psgrank.corpus import CorpusError, StopwordList, ingest_corpus, load_topics
from psgrank.evaluation import (
    JudgmentError,
    load_char_qrels,
    load_doc_qrels,
    load_sentence_qrels,
)
from psgrank.features import (
    FeatureMatrix,
    FeatureSchema,
    load_embeddings,
    load_entities,
    load_synonyms,
    read_svmlight,
    write_svmlight,
)
from psgrank.rank import read_trec_run

SCHEMA = FeatureSchema("s", ("f1", "f2"))

# The line separators of str.splitlines() that are not line ends here.
SEPARATORS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _grades(judgments):
    return [(q, i, g) for q, items in judgments.grades.items() for i, g in items.items()]


def _spans(judgments):
    return [(q, d, s) for q, docs in judgments.char_spans.items() for d, s in docs.items()]


def _jsonl(record):
    return json.dumps(record, ensure_ascii=False)


class Reader:
    """A reader, its two good lines (``good(s)``, with ``s`` inside a field
    of the first, or between two fields where fields split on whitespace),
    what it reads from them, a malformed line, and what it reads from the
    first good line, blank lines and the ``hashed`` line: a result, or the
    line number of the error it raises."""

    def __init__(self, read, error, good, want, bad, hashed_line, hashed):
        self.read, self.error, self.good, self.want = read, error, good, want
        self.bad, self.hashed_line, self.hashed = bad, hashed_line, hashed


READERS = {
    "topics": Reader(
        lambda p: [(q.query_id, q.text) for q in load_topics(p)], CorpusError,
        lambda s: [f"q1\talpha{s}beta", "q2\tgamma"],
        lambda s: [("q1", f"alpha{s}beta"), ("q2", "gamma")],
        "q3 no tab", "#q2\tgamma", [("q1", "alphabeta")],
    ),
    # Stopword lines are stripped before the '#' test.
    "stopwords": Reader(
        lambda p: sorted(StopwordList.from_file(p).terms), CorpusError,
        lambda s: [f"al{s}pha", "beta"],
        lambda s: sorted([f"al{s}pha", "beta"]),
        None, "  #beta", ["alpha"],
    ),
    "jsonl": Reader(
        lambda p: [(d.doc_id, d.raw_text) for d in ingest_corpus(p).documents], CorpusError,
        lambda s: [_jsonl({"id": "d1", "text": f"a{s}b"}), _jsonl({"id": "d2", "text": "c"})],
        lambda s: [("d1", f"a{s}b"), ("d2", "c")],
        "{broken", "#" + _jsonl({"id": "d2", "text": "c"}), 5,
    ),
    "doc_qrels": Reader(
        lambda p: _grades(load_doc_qrels(p)), JudgmentError,
        lambda s: [f"q1 0 {s}d1 1", "q1 0 d2 0"],
        lambda s: [("q1", "d1", 1), ("q1", "d2", 0)],
        "q1 0 d3", "#q1 0 d2 0", [("q1", "d1", 1)],
    ),
    "char_qrels": Reader(
        lambda p: _spans(load_char_qrels(p)), JudgmentError,
        lambda s: [f"q1\td{s}1\t0\t5", "q1\td2\t3\t9"],
        lambda s: [("q1", f"d{s}1", [(0, 5)]), ("q1", "d2", [(3, 9)])],
        "q1\td3\t4", "#q1\td2\t3\t9", [("q1", "d1", [(0, 5)])],
    ),
    "sentence_qrels": Reader(
        lambda p: _grades(load_sentence_qrels(p)), JudgmentError,
        lambda s: [f"q1\tp{s}1\t1", "q1\tp2\t0"],
        lambda s: [("q1", f"p{s}1", 1), ("q1", "p2", 0)],
        "q1\tp3", "#q1\tp2\t0", [("q1", "p1", 1)],
    ),
    # No comments: a '#' line is an embedding of the term "#beta".
    "embeddings": Reader(
        lambda p: [(t, v.tolist()) for t, v in load_embeddings(p).items()], ValueError,
        lambda s: [f"alpha 1.0 {s}2.0", "beta 3.0 4.0"],
        lambda s: [("alpha", [1.0, 2.0]), ("beta", [3.0, 4.0])],
        "gamma 1.0 x", "#beta 3.0 4.0", [("alpha", [1.0, 2.0]), ("#beta", [3.0, 4.0])],
    ),
    "synonyms": Reader(
        lambda p: [(t, sorted(s)) for t, s in load_synonyms(p).items()], ValueError,
        lambda s: [f"car: auto{s}mobile, wagon", "dog: hound"],
        lambda s: [("car", [f"auto{s}mobile", "wagon"]), ("dog", ["hound"])],
        "no colon", "#dog: hound", [("car", ["automobile", "wagon"])],
    ),
    "entities": Reader(
        lambda p: [(i, sorted(e)) for i, e in load_entities(p).items()], ValueError,
        lambda s: [f"d1\te{s}1\t0.5", "d2\te2\t0.9"],
        lambda s: [("d1", [f"e{s}1"]), ("d2", ["e2"])],
        "d3\te3", "#d2\te2\t0.9", [("d1", ["e1"])],
    ),
    # No comments: '#' starts a row's item id, so a '#' line is a row without fields.
    "svmlight": Reader(
        lambda p: [
            (m.query_id, m.item_ids, m.values.tolist(), g) for m, g in read_svmlight(p, SCHEMA)
        ],
        ValueError,
        lambda s: [f"1 qid:q1 1:0.5 2:1.0 # d{s}1", "0 qid:q1 1:0.25 # d2"],
        lambda s: [("q1", (f"d{s}1", "d2"), [[0.5, 1.0], [0.25, 0.0]], [1, 0])],
        "0 qid:q1 3:1.0 # d3", "#0 qid:q1 1:0.25 # d2", 5,
    ),
    # No comments: a '#' line is a run line of query "#q1".
    "trec_run": Reader(
        lambda p: [(r.query_id, r.entries) for r in read_trec_run(p)], ValueError,
        lambda s: [f"q1 Q0 d1 {s}1 2.5 t", "q1 Q0 d2 2 1.5 t"],
        lambda s: [("q1", (("d1", 2.5), ("d2", 1.5)))],
        "q1 Q0 d3 3 x t", "#q1 Q0 d2 2 1.5 t", [("q1", (("d1", 2.5),)), ("#q1", (("d2", 1.5),))],
    ),
}

assert len(READERS) == 11


def _raises(reader, path, where):
    """The reader fails on ``path`` with its own class, naming ``where``."""
    with pytest.raises(reader.error) as info:
        reader.read(path)
    assert type(info.value) is reader.error
    assert str(info.value).startswith(f"{path}:{where}")
    return str(info.value)


@pytest.mark.parametrize("name", READERS)
class TestLineReaders:
    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_crlf_and_lone_cr_read_as_lf(self, tmp_path, name, end):
        reader = READERS[name]
        lf, other = tmp_path / "lf.txt", tmp_path / "other.txt"
        lf.write_bytes("\n".join(reader.good("") + [""]).encode("utf-8"))
        other.write_bytes(end.join(reader.good("") + [""]).encode("utf-8"))
        assert reader.read(other) == reader.read(lf) == reader.want("")
        if reader.bad is not None:
            other.write_bytes(end.join(reader.good("") + [reader.bad]).encode("utf-8"))
            _raises(reader, other, "3: ")

    @pytest.mark.parametrize("sep", SEPARATORS, ids=[f"U+{ord(s):04X}" for s in SEPARATORS])
    def test_separator_stays_on_its_line(self, tmp_path, name, sep):
        reader = READERS[name]
        path = tmp_path / "in.txt"
        path.write_bytes("\n".join(reader.good(sep) + [""]).encode("utf-8"))
        assert reader.read(path) == reader.want(sep)
        if reader.bad is not None:
            path.write_bytes("\n".join(reader.good(sep) + [reader.bad]).encode("utf-8"))
            _raises(reader, path, "3: ")

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_byte_not_utf8_names_line_and_column(self, tmp_path, name, end):
        # Line 1 holds a 3-byte character; the bad byte is line 2's third.
        reader = READERS[name]
        first, second = (line.encode("utf-8") for line in reader.good("\u2028"))
        path = tmp_path / "in.txt"
        path.write_bytes(first + end.encode() + second[:2] + b"\xff" + second[2:] + b"\n")
        message = _raises(reader, path, "2: ")
        assert message == f"{path}:2: not UTF-8: byte 0xff at column 3"

    def test_blank_and_hash_lines(self, tmp_path, name):
        reader = READERS[name]
        path = tmp_path / "in.txt"
        lines = [reader.good("")[0], "", "   ", "\t", reader.hashed_line]
        path.write_bytes("\n".join(lines + [""]).encode("utf-8"))
        if isinstance(reader.hashed, int):
            _raises(reader, path, f"{reader.hashed}: ")
            return
        assert reader.read(path) == reader.hashed
        if reader.bad is not None:
            path.write_bytes("\n".join(lines + [reader.bad]).encode("utf-8"))
            _raises(reader, path, "6: ")


def test_svmlight_round_trip_with_u0085_item_id(tmp_path):
    matrix = FeatureMatrix(SCHEMA, "q1", ["d\x85x", "d2"], [[0.5, 1.0], [0.25, 0.0]])
    write_svmlight(tmp_path / "f.svm", [(matrix, [1, 0])])
    (back, grades), = read_svmlight(tmp_path / "f.svm", SCHEMA)
    assert back.item_ids == matrix.item_ids and grades == [1, 0]
    assert back.values.tobytes() == matrix.values.tobytes()
