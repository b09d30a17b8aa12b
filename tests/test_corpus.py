import gc
import json
import random
import re
import string
import warnings

import numpy as np
import pytest

import row_references
from psgrank.corpus import (
    CorpusError,
    CorpusStore,
    LightStemmer,
    Query,
    StopwordList,
    Token,
    Tokenizer,
    default_stopwords,
    ingest_corpus,
    load_topics,
)
from psgrank.features import (
    DOC_SCHEMA,
    PSG_SCHEMA,
    PassageFeatureExtractor,
    SemanticResources,
    doc_features,
    doc_priors,
    stopword_priors,
)
from psgrank.index import LmParams, build_index
from psgrank.passage import _SENTENCE_BREAK_RE, SegmentationParams, segment
from psgrank.synthetic import SyntheticSpec, generate
from conftest import STORE_DAMAGES, build_store, make_query, write_jsonl


class TestTokenize:
    def test_punctuation_split(self, tokenizer):
        tokens = tokenizer.tokenize("Cat, cat!")
        assert len(tokens) == 2
        assert [t.stem for t in tokens] == ["cat", "cat"]
        assert [(t.char_start, t.char_end) for t in tokens] == [(0, 3), (5, 8)]

    def test_empty_input(self, tokenizer):
        assert tokenizer.tokenize("") == []

    def test_alphanumeric_runs(self, tokenizer):
        tokens = tokenizer.tokenize("IR-2024 test")
        assert [t.stem for t in tokens] == ["ir", "2024", "test"]

    def test_offsets_round_trip(self, tokenizer):
        text = "The  Quick,   brown fox-like 42 things."
        for t in tokenizer.tokenize(text):
            assert text[t.char_start : t.char_end] == t.surface

    def test_deterministic(self, tokenizer):
        text = "Some text; with punctuation... and MORE."
        assert tokenizer.tokenize(text) == tokenizer.tokenize(text)


class TestTokenizerCache:
    TEXTS = ("The THE the", "Running RUNNING ran", "the Cats, THE cats; running 42")

    def test_warm_cache_matches_cold(self):
        warm = Tokenizer()
        for text in self.TEXTS:
            warm.tokenize(text)
        for text in self.TEXTS:
            assert warm.tokenize(text) == Tokenizer().tokenize(text)

    def test_each_token_matches_direct_analysis(self):
        tokenizer = Tokenizer()
        stemmer, stopwords = LightStemmer(), default_stopwords()
        for text in self.TEXTS * 2:
            for t in tokenizer.tokenize(text):
                assert t.stem == stemmer.stem(t.surface.lower())
                assert t.is_stopword == (t.surface.lower() in stopwords)

    def test_token_is_immutable(self, tokenizer):
        token = tokenizer.tokenize("Cats")[0]
        for field in Token._fields:
            with pytest.raises(AttributeError):
                setattr(token, field, "x")
        assert token == Token("Cats", "cat", 0, 4, False)
        assert hash(token) == hash(Token("Cats", "cat", 0, 4, False))

    def test_analysis_chain_is_read_only(self, tokenizer):
        with pytest.raises(AttributeError):
            tokenizer.stemmer = LightStemmer()
        with pytest.raises(AttributeError):
            tokenizer.stopwords = StopwordList("x", ["cats"])


class TestStemmer:
    @pytest.mark.parametrize(
        "word,expected",
        [
            ("cats", "cat"),
            ("cat", "cat"),
            ("running", "run"),
            ("flies", "fly"),
            ("glasses", "glass"),
            ("wanted", "want"),
            ("hopped", "hop"),
            ("falling", "fall"),
            ("pressed", "press"),
        ],
    )
    def test_reference_vectors(self, word, expected):
        assert LightStemmer().stem(word) == expected

    def test_idempotent(self):
        stemmer = LightStemmer()
        words = [
            "cats", "running", "teasing", "meetings", "studies", "boxes",
            "promising", "focusing", "buildings", "a", "is", "sses",
        ]
        for w in words:
            once = stemmer.stem(w)
            assert stemmer.stem(once) == once


class TestStopwords:
    def test_bundled_list_size_and_name(self):
        lst = default_stopwords()
        assert lst.name == "inquery-418"
        assert len(lst) == 418

    def test_case_insensitive_lookup(self):
        lst = StopwordList("x", ["the"])
        assert "The" in lst and "THE" in lst

    def test_empty_list_rejected(self):
        with pytest.raises(CorpusError):
            StopwordList("x", [])

    def test_comments_in_file(self, tmp_path):
        p = tmp_path / "stop.txt"
        p.write_text("# header\nthe\n\nof\n")
        lst = StopwordList.from_file(p)
        assert lst.terms == frozenset({"the", "of"})


class TestQuery:
    def test_stopwords_removed_from_queries_only(self, tokenizer):
        q = Query("q1", "the cat and the dog", tokenizer)
        assert [t.stem for t in q.tokens] == ["cat", "dog"]
        doc_tokens = tokenizer.tokenize("the cat and the dog")
        assert len(doc_tokens) == 5  # documents retain stopwords

    def test_unique_term_count(self, tokenizer):
        q = Query("q1", "cats cat dog", tokenizer)
        assert q.unique_term_count == 2


class TestIngest:
    def test_jsonl_basic(self, tmp_path, tokenizer):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "d1", "text": "The cat sat."}])
        store = ingest_corpus(path, tokenizer=tokenizer)
        doc = store.get("d1")
        assert doc.length == 3
        assert [t.surface for t in doc.tokens] == ["The", "cat", "sat"]

    def test_title_prepended(self, tmp_path, tokenizer):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "d1", "text": "body", "title": "Top"}])
        store = ingest_corpus(path, tokenizer=tokenizer)
        assert [t.surface for t in store.get("d1").tokens] == ["Top", "body"]

    def test_duplicate_id_rejected(self, tmp_path, tokenizer):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "d1", "text": "a"}, {"id": "d1", "text": "b"}])
        with pytest.raises(CorpusError, match="d1"):
            ingest_corpus(path, tokenizer=tokenizer)

    def test_malformed_record_names_line(self, tmp_path, tokenizer):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "d1", "text": "ok"}\n{broken\n')
        with pytest.raises(CorpusError, match=":2"):
            ingest_corpus(path, tokenizer=tokenizer)

    def test_missing_fields_rejected(self, tmp_path, tokenizer):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "d1"}])
        with pytest.raises(CorpusError, match="text"):
            ingest_corpus(path, tokenizer=tokenizer)

    @pytest.mark.parametrize(
        "record", [{"id": "d1", "text": 5}, {"id": "d1", "text": "body", "title": 7}]
    )
    def test_non_string_text_or_title_names_line(self, tmp_path, tokenizer, record):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "d0", "text": "ok"}, record])
        with pytest.raises(CorpusError, match="c.jsonl:2: 'text' and 'title' must be strings"):
            ingest_corpus(path, tokenizer=tokenizer)

    def test_empty_text_kept_with_warning(self, tmp_path, tokenizer):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "d1", "text": ""}])
        with pytest.warns(UserWarning, match="d1"):
            store = ingest_corpus(path, tokenizer=tokenizer)
        assert store.get("d1").length == 0

    def test_missing_file(self, tokenizer):
        with pytest.raises(CorpusError, match="not found"):
            ingest_corpus("no/such/file.jsonl", tokenizer=tokenizer)

    def test_jsonl_not_utf8_names_line_and_byte(self, tmp_path, tokenizer):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b'{"id": "d1", "text": "ok"}\n{"id": "d2", "text": "b\xffd"}\n')
        with pytest.raises(CorpusError, match=r"c.jsonl:2: not UTF-8: byte 0xff at column 24$"):
            ingest_corpus(path, tokenizer=tokenizer)

    def test_jsonl_crlf_and_non_ascii_lines(self, tmp_path, tokenizer):
        path = tmp_path / "c.jsonl"
        path.write_bytes('{"id": "d1", "text": "caf\u00e9 ok"}\r\n\r\n{"id": "d2", "text": "x"}'
                         .encode("utf-8"))
        store = ingest_corpus(path, tokenizer=tokenizer)
        assert store.doc_ids() == ["d1", "d2"]
        assert store.get("d1").raw_text == "caf\u00e9 ok"

    def test_trecweb(self, tmp_path, tokenizer):
        path = tmp_path / "c.trecweb"
        path.write_text(
            "<DOC>\n<DOCNO>doc-1</DOCNO>\n<TEXT>hello there</TEXT>\n</DOC>\n"
            "<DOC>\n<DOCNO>doc-2</DOCNO>\n<TEXT>more</TEXT>\n<TEXT>text</TEXT>\n</DOC>\n"
        )
        store = ingest_corpus(path, "trecweb", tokenizer=tokenizer)
        assert store.doc_ids() == ["doc-1", "doc-2"]
        assert [t.surface for t in store.get("doc-2").tokens] == ["more", "text"]

    def test_trecweb_missing_docno(self, tmp_path, tokenizer):
        path = tmp_path / "c.trecweb"
        path.write_text("<DOC>\n<TEXT>orphan</TEXT>\n</DOC>\n")
        with pytest.raises(CorpusError, match="DOCNO"):
            ingest_corpus(path, "trecweb", tokenizer=tokenizer)


    def test_trecweb_missing_docno_names_byte_offset(self, tmp_path, tokenizer):
        # The offset counts bytes of the file, past CRLF line ends and a
        # multi-byte character, and points at the block's "<DOC>".
        head = "<DOC>\r\n<DOCNO>d1</DOCNO>\r\n<TEXT>caf\u00e9 \u4e16\r\nx</TEXT>\r\n</DOC>\r\n"
        data = head.encode("utf-8") + b"<DOC>\r\n<TEXT>orphan</TEXT>\r\n</DOC>\r\n"
        path = tmp_path / "c.trecweb"
        path.write_bytes(data)
        offset = len(head.encode("utf-8"))
        assert offset != len(head.replace("\r\n", "\n"))
        with pytest.raises(CorpusError, match=f"<DOC> block at byte {offset} has no <DOCNO>$"):
            ingest_corpus(path, "trecweb", tokenizer=tokenizer)

    def test_trecweb_not_utf8_names_byte_offset(self, tmp_path, tokenizer):
        # The offset counts bytes of the file, past CRLF line ends and a
        # multi-byte character.
        head = "<DOC>\r\n<DOCNO>d1</DOCNO>\r\n<TEXT>caf\u00e9" + " x" * 5000
        head += "</TEXT></DOC>\r\n"
        data = head.encode("utf-8") + b"<DOC><DOCNO>d2</DOCNO><TEXT>\xfe</TEXT></DOC>\n"
        path = tmp_path / "c.trecweb"
        path.write_bytes(data)
        offset = len(head.encode("utf-8")) + len("<DOC><DOCNO>d2</DOCNO><TEXT>")
        where = f"c.trecweb: not UTF-8: byte 0xfe at byte {offset}$"
        with pytest.raises(CorpusError, match=where):
            ingest_corpus(path, "trecweb", tokenizer=tokenizer)

class TestStorePersistence:
    def test_save_load_round_trip(self, tmp_path, tokenizer):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "d1", "text": "alpha beta"}, {"id": "d2", "text": "gamma"}])
        store = ingest_corpus(path, tokenizer=tokenizer)
        store.save(tmp_path / "store")
        loaded = CorpusStore.load(
            tmp_path / "store", stopwords=tokenizer.stopwords
        )
        assert loaded.doc_ids() == store.doc_ids()
        assert loaded.get("d1").tokens == store.get("d1").tokens
        assert loaded.manifest() == store.manifest()

    def test_byte_identical_stores(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "d1", "text": "The cats ran"}, {"id": "d2", "text": "a cat"}])
        for out in ("s1", "s2"):
            ingest_corpus(path, tokenizer=Tokenizer()).save(tmp_path / out)
        names = {p.name for p in (tmp_path / "s1").iterdir()}
        assert names == {
            "docs.jsonl", "manifest.json", "term_ids.i32", "stopword_ids.i16", "vocabulary.txt"
        }
        assert {p.name for p in (tmp_path / "s2").iterdir()} == names
        for name in names:
            assert (tmp_path / "s1" / name).read_bytes() == (tmp_path / "s2" / name).read_bytes()
        assert (tmp_path / "s1" / "vocabulary.txt").read_text() == "the\ncat\nran\na\n"

    @pytest.mark.parametrize(
        "before,after",
        [("gamma beta", ""), ("zeta beta alpha", "omega"), ("", "omega gamma"), ("", "")],
    )
    def test_bytes_depend_on_the_texts_alone(self, tmp_path, before, after):
        """A tokenizer that analysed other text before or after the corpus
        saves the bytes of a fresh one: the stems of the texts, numbered by
        first occurrence."""
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "d1", "text": "alpha beta"}, {"id": "d2", "text": "beta delta"}])
        ingest_corpus(path, tokenizer=Tokenizer()).save(tmp_path / "fresh")
        used = Tokenizer()
        used.tokenize(before)
        store = ingest_corpus(path, tokenizer=used)
        used.tokenize(after)
        store.save(tmp_path / "used")
        for name in ("docs.jsonl", "manifest.json", "term_ids.i32", "stopword_ids.i16"):
            assert (tmp_path / "used" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
        assert (tmp_path / "used" / "vocabulary.txt").read_text() == "alpha\nbeta\ndelta\n"
        loaded = CorpusStore.load(tmp_path / "used")
        assert [d.stems() for d in loaded.documents] == [d.stems() for d in store.documents]

    def test_manifest_records_identities(self, tmp_path, tokenizer):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "d1", "text": "alpha"}])
        manifest = ingest_corpus(path, tokenizer=tokenizer).manifest()
        assert manifest["stemmer"] == "light-en-1"
        assert manifest["stopwords"] == "tiny"
        assert manifest["tokenizer"] == "alnum-v1"
        assert manifest["doc_count"] == 1

    def test_tampered_store_detected(self, tmp_path, tokenizer):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "d1", "text": "alpha"}])
        ingest_corpus(path, tokenizer=tokenizer).save(tmp_path / "store")
        docs = tmp_path / "store" / "docs.jsonl"
        docs.write_text(json.dumps({"id": "d1", "text": "tampered"}) + "\n")
        with pytest.raises(CorpusError, match="checksum"):
            CorpusStore.load(tmp_path / "store", stopwords=tokenizer.stopwords)

    @pytest.fixture
    def saved(self, tmp_path, tokenizer):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "d1", "text": "alpha"}, {"id": "d2", "text": "beta"}])
        ingest_corpus(path, tokenizer=tokenizer).save(tmp_path / "store")
        return tmp_path / "store"

    @pytest.mark.parametrize("field", ["version", "stopwords", "stemmer", "format", "checksum"])
    def test_manifest_missing_a_field_rejected(self, saved, tokenizer, field):
        manifest = json.loads((saved / "manifest.json").read_text())
        del manifest[field]
        (saved / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CorpusError, match="manifest.json: expected a JSON object with"):
            CorpusStore.load(saved, stopwords=tokenizer.stopwords)

    @pytest.mark.parametrize(
        "text,problem",
        [("[]", ": expected a JSON object"), ('{"version": 1', ":1:14: not valid JSON")],
    )
    def test_manifest_not_a_json_object_rejected(self, saved, tokenizer, text, problem):
        (saved / "manifest.json").write_text(text)
        with pytest.raises(CorpusError, match=f"manifest.json{problem}"):
            CorpusStore.load(saved, stopwords=tokenizer.stopwords)

    @pytest.mark.parametrize(
        "record,problem",
        [('{"text": "beta"}', "record must carry 'id' and 'text'"), ("{", "malformed JSON")],
    )
    def test_bad_docs_record_names_path_and_line(self, saved, tokenizer, record, problem):
        docs = saved / "docs.jsonl"
        docs.write_text(docs.read_text().splitlines()[0] + "\n" + record + "\n")
        with pytest.raises(CorpusError, match=f"docs.jsonl:2: {problem}"):
            CorpusStore.load(saved, stopwords=tokenizer.stopwords)


    @pytest.mark.parametrize("damage", list(STORE_DAMAGES))
    def test_damaged_store_rejected(self, saved, tokenizer, damage):
        edit, problem = STORE_DAMAGES[damage]
        edit(saved)
        with pytest.raises(CorpusError, match=re.escape(problem)):
            CorpusStore.load(saved, stopwords=tokenizer.stopwords)

    def test_docs_not_utf8_names_path_and_line(self, saved, tokenizer):
        docs = saved / "docs.jsonl"
        lines = docs.read_bytes().splitlines()
        docs.write_bytes(lines[0] + b"\n" + lines[1].replace(b"beta", b"be\xc3ta") + b"\n")
        with pytest.raises(CorpusError, match="docs.jsonl:2: not UTF-8: byte 0xc3 at column"):
            CorpusStore.load(saved, stopwords=tokenizer.stopwords)

class TestTopics:
    def test_load(self, tmp_path, tokenizer):
        path = tmp_path / "topics.tsv"
        path.write_text("q1\tthe cat\nq2\tdogs running\n")
        queries = load_topics(path, tokenizer)
        assert [q.query_id for q in queries] == ["q1", "q2"]
        assert queries[0].stems() == ["cat"]
        assert queries[1].stems() == ["dog", "run"]

    def test_duplicate_query_id(self, tmp_path, tokenizer):
        path = tmp_path / "topics.tsv"
        path.write_text("q1\ta\nq1\tb\n")
        with pytest.raises(CorpusError, match="q1"):
            load_topics(path, tokenizer)

    def test_malformed_line(self, tmp_path, tokenizer):
        path = tmp_path / "topics.tsv"
        path.write_text("q1 no tab here\n")
        with pytest.raises(CorpusError, match=":1"):
            load_topics(path, tokenizer)


# Non-ASCII letters, digits, only punctuation, empty text, and leading or
# trailing separators; stopwords in mixed case.
COLUMN_TEXTS = (
    "Café naïve Ünïcode straße, résumé",
    "IR-2024 42 3.14 v2x 007",
    "... !!! --- ?",
    "",
    "   leading and trailing   ",
    "--The cat sat. Of THE mat!--",
    "x",
    "The THE the Running RUNNING ran, Cats; cats... 42",
)


def _corpus_texts():
    words = ("The", "cat", "Running", "ran", "over", "dogs.", "Is", "it", "café", "42",
             "IR-2024", "naïve!", "Cats?", "and", "of", "things...")
    texts = {f"t{i}": text for i, text in enumerate(COLUMN_TEXTS)}
    for i in range(12):
        texts[f"w{i:02d}"] = " ".join(words[(i * 7 + 3 * k) % len(words)] for k in range(5 * i))
    return texts


# Tokens are ASCII alphanumeric runs, so every other unit here must split:
# ASCII punctuation and controls, Unicode spaces (U+0085, U+00A0, U+3000),
# non-ASCII letters, an astral code point and a lone surrogate. Whole words
# bring stopwords in mixed case and stems shared by several surfaces.
FUZZ_UNITS = (
    list(string.ascii_letters + string.digits + string.punctuation + " \t\n")
    + ["\x00", "\x1c", "\x1d", "\x1e", "\x1f", "\x7f", "\x85", "\xa0", "\u3000"]
    + ["é", "日", "\U0001f600", "\ud800"]
    + ["the", "The", "OF", "and", "Running", "runs", "cats", "Cats", "ies", "42"]
)


def _fuzz_texts(n=3000, seed=16):
    rng = random.Random(seed)
    return ["".join(rng.choices(FUZZ_UNITS, k=rng.randrange(16))) for _ in range(n)]


def _columns_of(doc):
    return [(c.dtype, c.tolist()) for c in (
        doc.term_ids, doc.char_starts, doc.char_ends, doc.stopword_ids
    )]


class TestTokenizerFuzz:
    """The byte-level tokenizer against the regex reference on random texts."""

    def test_tokens_and_columns_equal_reference(self):
        texts = _fuzz_texts()
        tokenizer = Tokenizer()
        docs = [tokenizer.document(f"d{i}", text) for i, text in enumerate(texts)]
        ordered = sorted(tokenizer.stopwords.terms)
        # Term ids number the stems in order of first occurrence.
        term_ids: dict[str, int] = {}
        for text, doc in zip(texts, docs):
            ref = row_references.tokenize(text, tokenizer.stemmer, tokenizer.stopwords)
            assert tokenizer.tokenize(text) == ref
            assert doc.tokens == ref
            for t in ref:
                term_ids.setdefault(t.stem, len(term_ids))
            assert _columns_of(doc) == [
                (np.dtype(np.int32), [term_ids[t.stem] for t in ref]),
                (np.dtype(np.int64), [t.char_start for t in ref]),
                (np.dtype(np.int64), [t.char_end for t in ref]),
                (np.dtype(np.int16), [
                    ordered.index(t.surface.lower()) if t.is_stopword else -1 for t in ref
                ]),
            ]
        assert docs[0].vocabulary == list(term_ids)

    def test_cold_and_warm_tokenizers_agree(self):
        texts = _fuzz_texts(seed=17)
        cold = Tokenizer()
        first = [_columns_of(cold.document("d", text)) for text in texts]
        vocabulary = list(cold.document("d", "").vocabulary)
        # The same texts again, read from the warm surface cache.
        assert [_columns_of(cold.document("d", text)) for text in texts] == first
        warm = Tokenizer()
        for text in texts:
            warm.tokenize(text)
        assert [_columns_of(warm.document("d", text)) for text in texts] == first
        assert warm.document("d", "").vocabulary == vocabulary
        assert cold.document("d", "").vocabulary == vocabulary


class TestColumnarStore:
    @pytest.mark.parametrize("text", COLUMN_TEXTS)
    def test_columns_match_reference(self, tokenizer, text):
        stopwords = tokenizer.stopwords
        ref = row_references.tokenize(text, tokenizer.stemmer, stopwords)
        assert tokenizer.tokenize(text) == ref
        doc = tokenizer.document("d", text)
        assert doc.tokens == ref
        assert doc.length == len(ref)
        assert doc.stems() == [t.stem for t in ref]
        assert doc.char_starts.tolist() == [t.char_start for t in ref]
        assert doc.char_ends.tolist() == [t.char_end for t in ref]
        ordered = sorted(stopwords.terms)
        assert doc.stopword_ids.tolist() == [
            ordered.index(t.surface.lower()) if t.is_stopword else -1 for t in ref
        ]

    def test_columns_match_reference_with_default_stopwords(self):
        tokenizer = Tokenizer()
        for text in COLUMN_TEXTS:
            ref = row_references.tokenize(text, tokenizer.stemmer, tokenizer.stopwords)
            assert tokenizer.document("d", text).tokens == ref

    def test_columns_are_read_only(self, tokenizer):
        doc = tokenizer.document("d", "the cat sat")
        for column in (doc.term_ids, doc.char_starts, doc.char_ends, doc.stopword_ids):
            with pytest.raises(ValueError):
                column[0] = 1

    def test_load_equals_ingest(self, tmp_path, tokenizer):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": d, "text": t} for d, t in _corpus_texts().items()])
        with pytest.warns(UserWarning):
            store = ingest_corpus(path, tokenizer=tokenizer)
        store.save(tmp_path / "store")
        loaded = CorpusStore.load(tmp_path / "store", stopwords=tokenizer.stopwords)
        assert loaded.doc_ids() == store.doc_ids()
        assert loaded.manifest() == store.manifest()
        for a, b in zip(loaded.documents, store.documents):
            assert (a.doc_id, a.raw_text) == (b.doc_id, b.raw_text)
            assert a.tokens == b.tokens
            assert a.stems() == b.stems()
            assert a.stopword_ids.tolist() == b.stopword_ids.tolist()

    @pytest.mark.parametrize("corpus", ["tiny", "unicode"])
    def test_loaded_columns_equal_the_tokenizers(self, tmp_path, corpus):
        """Loading reads the stored analysis: the columns and vocabulary a
        tokenizer makes from the texts in store order."""
        if corpus == "tiny":
            spec = SyntheticSpec(
                n_docs=48, n_queries=6, doc_tokens=90, window_len=30,
                relevant_per_query=4, distractors_per_query=4, vocab_size=300, seed=5,
            )
            path = generate(spec, tmp_path / "data")["corpus"]
        else:
            # Non-ASCII and astral code points, and empty texts; the store's
            # UTF-8 cannot hold a lone surrogate.
            texts = [*_corpus_texts().values(), "a\U0001f600b \U0001f600", ""]
            texts += [t for t in _fuzz_texts(n=300) if "\ud800" not in t]
            path = tmp_path / "c.jsonl"
            write_jsonl(path, [{"id": f"d{i}", "text": t} for i, t in enumerate(texts)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # documents with no tokens
            ingest_corpus(path).save(tmp_path / "store")
        loaded = CorpusStore.load(tmp_path / "store")
        reference = Tokenizer()
        for doc in loaded.documents:
            want = reference.document(doc.doc_id, doc.raw_text)
            for name in ("term_ids", "char_starts", "char_ends", "stopword_ids"):
                got, expected = getattr(doc, name), getattr(want, name)
                assert got.dtype == expected.dtype and np.array_equal(got, expected), name
                assert not got.flags.writeable
        assert loaded.documents[0].vocabulary == want.vocabulary
        # A query analysed after the load numbers its new stems after the stored ones.
        words = loaded.documents[-1].raw_text.split()[:8]
        text = " ".join(["zzzunseen", *words, "zzzother"])
        stored = len(want.vocabulary)
        loaded_ids, reference_ids = (
            [t.term_id(s) for s in make_query("q", text, t).stems()]
            for t in (loaded.tokenizer, reference)
        )
        assert loaded_ids == reference_ids and max(loaded_ids) == stored + 1

    def test_renumbered_store_equals_a_fresh_tokenizers(self, tmp_path):
        """A tokenizer that first analysed the texts in reverse order numbers
        every stem differently; its store still has a fresh tokenizer's bytes,
        and loads to the same stems."""
        texts = [*_corpus_texts().values(), "a\U0001f600b \U0001f600", ""]
        texts += [t for t in _fuzz_texts(n=300) if "\ud800" not in t]
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": f"d{i}", "text": t} for i, t in enumerate(texts)])
        used = Tokenizer()
        for text in reversed(texts):
            used.tokenize(text)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # documents with no tokens
            fresh = ingest_corpus(path)
            store = ingest_corpus(path, tokenizer=used)
        assert [d.term_ids.tolist() for d in store.documents] != [
            d.term_ids.tolist() for d in fresh.documents
        ]
        fresh.save(tmp_path / "fresh")
        store.save(tmp_path / "used")
        for name in ("docs.jsonl", "manifest.json", "term_ids.i32", "stopword_ids.i16",
                     "vocabulary.txt"):
            assert (tmp_path / "used" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
        loaded = CorpusStore.load(tmp_path / "used")
        assert [d.stems() for d in loaded.documents] == [d.stems() for d in store.documents]

    def test_load_runs_no_per_token_analysis(self, tmp_path, monkeypatch):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": d, "text": t} for d, t in _corpus_texts().items()])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            store = ingest_corpus(path)
        store.save(tmp_path / "store")

        def per_token(*args):
            raise AssertionError("load analysed a token")

        for cls, name in ((Tokenizer, "_columns"), (Tokenizer, "_analyse"),
                          (LightStemmer, "stem")):
            monkeypatch.setattr(cls, name, per_token)
        loaded = CorpusStore.load(tmp_path / "store")
        assert [d.stems() for d in loaded.documents] == [d.stems() for d in store.documents]

    def test_index_equals_reference_build(self, tokenizer):
        texts = _corpus_texts()
        # Term ids in another order than first occurrence in the corpus.
        tokenizer.tokenize(" ".join(reversed(" ".join(texts.values()).split())))
        store = build_store(texts, tokenizer)
        index = build_index(store)
        postings, counts = row_references.postings(store)
        assert list(row_references.postings_of(index).items()) == list(postings.items())
        assert list(index.collection_term_counts.items()) == list(counts.items())

    def test_stopword_priors_equal_token_formulas(self, tokenizer):
        store = build_store(_corpus_texts(), tokenizer)
        stopwords = tokenizer.stopwords
        index = build_index(store)
        query = make_query("q", "cat running things", tokenizer)
        params = SegmentationParams(window_len=4)
        passages_by_doc = {d.doc_id: segment(d, params) for d in store.documents}
        extractor = PassageFeatureExtractor(
            query, store, index, store.doc_ids(), passages_by_doc,
            SemanticResources(), LmParams(50.0),
        )
        matrix = extractor.matrix()
        rows = dict(zip(matrix.item_ids, matrix.values.tolist()))
        sw1, sw2, nonstop = (PSG_SCHEMA.index_of(f) for f in ("SW1", "SW2", "PsgLength"))
        for doc in store.documents:
            tokens = doc.tokens
            priors = doc_priors([doc], stopwords)[0]
            doc_values = doc_features(query, doc, index, LmParams(50.0), priors)
            vec = dict(zip(DOC_SCHEMA.features, doc_values))
            assert vec["SW1"] == row_references.stopword_fraction(tokens)
            assert vec["SW2"] == row_references.stopword_coverage(tokens, stopwords)
            for p in passages_by_doc[doc.doc_id]:
                unit = tokens[p.token_range[0] : p.token_range[1]]
                ids = doc.stopword_ids[p.token_range[0] : p.token_range[1]]
                fraction, coverage, count = stopword_priors(
                    ids, np.array([len(ids)]), len(stopwords)
                )
                assert fraction.tolist() == [row_references.stopword_fraction(unit)]
                assert coverage.tolist() == [row_references.stopword_coverage(unit, stopwords)]
                assert count.tolist() == [row_references.non_stopword_count(unit)]
                values = rows[p.passage_id]
                assert values[sw1] == row_references.stopword_fraction(unit)
                assert values[sw2] == row_references.stopword_coverage(unit, stopwords)
                assert values[nonstop] == row_references.non_stopword_count(unit)

    @pytest.mark.parametrize("params", [
        SegmentationParams(window_len=1),
        SegmentationParams(window_len=3),
        SegmentationParams(window_len=300),
        SegmentationParams(mode="sentence"),
    ])
    def test_passage_char_ranges_equal_token_reference(self, tokenizer, params):
        store = build_store(_corpus_texts(), tokenizer)
        for doc in store.documents:
            passages = segment(doc, params)
            if params.mode == "sentence" and doc.length:
                bounds = row_references.sentence_bounds(doc, _SENTENCE_BREAK_RE)
                assert [p.token_range for p in passages] == bounds
            for p in passages:
                assert p.char_range == row_references.char_range(doc, p.token_range)
                assert all(type(x) is int for x in p.char_range)

    def test_tracked_objects_grow_with_documents_not_tokens(self, tmp_path):
        def tracked_after_ingest(tokens_per_doc):
            path = tmp_path / f"c{tokens_per_doc}.jsonl"
            words = [f"w{i % 50}" for i in range(tokens_per_doc)]
            write_jsonl(path, [{"id": f"d{i}", "text": " ".join(words)} for i in range(40)])
            tokenizer = Tokenizer(stopwords=StopwordList("tiny", ["w0"]))
            tokenizer.tokenize(" ".join(words))  # the vocabulary, outside the count
            gc.collect()
            before = len(gc.get_objects())
            store = ingest_corpus(path, tokenizer=tokenizer)
            gc.collect()
            added = len(gc.get_objects()) - before
            assert len(store) == 40
            return added

        short, long = tracked_after_ingest(60), tracked_after_ingest(600)
        # 40 documents with 21,600 more tokens between them.
        assert long - short <= 40
