"""Corpus ingestion: tokenization, stemming, stopwords, and the document store.

Documents keep every token (including stopwords) as columns: term ids
over the tokenizer's interned stem vocabulary, character offsets into the
raw text, and stopword ids. Queries have stopwords removed at load time.
The store records the identities of the tokenizer, stemmer and stopword
list in its manifest so downstream indexes and models are never mixed
across incompatible text analysis chains. It also keeps the analysis
itself (term ids, stopword ids and the texts' stems), so a load does not
tokenize again.
"""

from __future__ import annotations

import hashlib
import json
import re
import warnings
from functools import cached_property
from importlib import resources as importlib_resources
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

TOKENIZER_ID = "alnum-v1"
# Version 2 keeps each document's term ids and stopword ids and the stem
# vocabulary beside the texts.
STORE_VERSION = 2
# CorpusStore.manifest, which run reports record, keeps the fields of the
# version-1 store manifest, so a report does not change with the store format.
_CORPUS_MANIFEST_VERSION = 1
# The manifest fields CorpusStore.load reads.
_MANIFEST_FIELDS = ("version", "tokenizer", "stopwords", "stemmer", "format", "checksum", "files")
# The store's analysis files: every document's term ids and stopword ids,
# concatenated in store order (little-endian), and the stems by term id,
# one per line.
_TERM_IDS, _STOPWORD_IDS, _VOCABULARY = "term_ids.i32", "stopword_ids.i16", "vocabulary.txt"
_ANALYSIS_FILES = (_TERM_IDS, _STOPWORD_IDS, _VOCABULARY)

# Tokens are maximal runs of [0-9A-Za-z]; this maps every other byte to a space.
_SEPARATORS = bytes(b if chr(b).isascii() and chr(b).isalnum() else 32 for b in range(256))
_VOWELS = set("aeiou")

# A surface's code holds its term id in the high bits and its stopword id
# + 1 in the low 32 (0 for a non-stopword).
_CODE_SHIFT = 32
_STOPWORD_MASK = (1 << _CODE_SHIFT) - 1
_COLUMN_DTYPES = (np.int32, np.int64, np.int64, np.int16)
_MAX_STOPWORDS = int(np.iinfo(np.int16).max)


class CorpusError(ValueError):
    """Malformed corpus input or store/manifest inconsistency."""


def _token_edges(text: str) -> tuple[bytes, np.ndarray]:
    """The text's bytes with every separator a space, and the char offsets
    of its tokens: starts and ends alternating."""
    # Every non-ASCII code point is a separator, and "replace" writes one
    # byte for each, so byte offsets are character offsets.
    separated = text.encode("ascii", "replace").translate(_SEPARATORS)
    # Token starts and ends alternate where the padded mask changes.
    is_alnum = np.zeros(len(separated) + 2, bool)
    np.not_equal(np.frombuffer(separated, np.uint8), 32, out=is_alnum[1:-1])
    return separated, np.flatnonzero(is_alnum[1:] != is_alnum[:-1])


def read_json_file(path: Path, error: type[ValueError]):
    """The JSON value a file holds; ``error`` naming path:line:column if it is not JSON."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise error(f"{path}:{exc.lineno}:{exc.colno}: not valid JSON: {exc.msg}") from None


class Token(NamedTuple):
    """A single token with character offsets into the source text."""

    surface: str
    stem: str
    char_start: int
    char_end: int
    is_stopword: bool


class Stemmer:
    """Base interface; subclasses must be deterministic and idempotent."""

    identity = "identity"

    def stem(self, word: str) -> str:
        return word


class LightStemmer(Stemmer):
    """Light English suffix stripper (plural / -ing / -ed removal).

    Rules, applied repeatedly until a fixpoint is reached:
      * ``-ies`` -> ``-y`` (len > 4), ``-sses`` -> ``-ss``, and a trailing
        ``-s`` is dropped unless the word ends in ``ss``/``us``/``is``;
      * ``-ing`` and ``-ed`` are stripped when at least three characters
        remain, with a trailing doubled consonant undoubled afterwards
        (``running`` -> ``run``) except for ``ll``/``ss``/``zz``.

    Iterating to a fixpoint guarantees idempotence (``teasing`` -> ``teas``
    -> ``tea`` in one call).
    """

    identity = "light-en-1"

    def stem(self, word: str) -> str:
        prev = None
        cur = word
        for _ in range(8):
            if cur == prev:
                break
            prev = cur
            cur = self._pass(cur)
        return cur

    @staticmethod
    def _undouble(word: str) -> str:
        if (
            len(word) >= 2
            and word[-1] == word[-2]
            and word[-1] not in _VOWELS
            and word[-1] not in "lsz"
        ):
            return word[:-1]
        return word

    def _pass(self, w: str) -> str:
        if w.endswith("ies") and len(w) > 4:
            w = w[:-3] + "y"
        elif w.endswith("sses"):
            w = w[:-2]
        elif (
            w.endswith("s")
            and len(w) > 3
            and not w.endswith(("ss", "us", "is"))
        ):
            w = w[:-1]
        if w.endswith("ing") and len(w) - 3 >= 3:
            w = self._undouble(w[:-3])
        elif w.endswith("ed") and len(w) - 2 >= 3:
            w = self._undouble(w[:-2])
        return w


STEMMERS: dict[str, type[Stemmer]] = {
    Stemmer.identity: Stemmer,
    LightStemmer.identity: LightStemmer,
}


def stemmer_by_identity(identity: str) -> Stemmer:
    try:
        return STEMMERS[identity]()
    except KeyError:
        raise CorpusError(f"unknown stemmer identity: {identity!r}") from None


class StopwordList:
    """Named set of lowercase stopwords with case-insensitive lookup."""

    def __init__(self, name: str, terms: Iterable[str]):
        self.name = name
        self.terms = frozenset(t.lower() for t in terms)
        if not self.terms:
            raise CorpusError(f"stopword list {name!r} is empty")
        if len(self.terms) > _MAX_STOPWORDS:
            raise CorpusError(
                f"stopword list {name!r} has {len(self.terms)} terms; stopword ids "
                f"are int16, so a list holds at most {_MAX_STOPWORDS}"
            )
        self._positions = {t: i for i, t in enumerate(sorted(self.terms))}

    def __contains__(self, word: str) -> bool:
        return word.lower() in self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def position(self, word: str) -> int:
        """Index of the lowercased word among the sorted terms; -1 if absent."""
        return self._positions.get(word.lower(), -1)

    @classmethod
    def from_file(cls, path: str | Path, name: str | None = None) -> "StopwordList":
        """Load a one-term-per-line file; '#' starts a comment line."""
        path = Path(path)
        terms = []
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                terms.append(line)
        return cls(name or path.stem, terms)


def default_stopwords() -> StopwordList:
    """The bundled 418-term INQUERY-style list."""
    ref = importlib_resources.files("psgrank.data") / "stopwords_inquery.txt"
    with importlib_resources.as_file(ref) as path:
        lst = StopwordList.from_file(path, name="inquery-418")
    return lst


class _SurfaceCodes(dict):
    """surface -> code; a missing surface is analysed once by ``analyse``."""

    def __init__(self, analyse: Callable[[str], int]):
        super().__init__()
        self._analyse = analyse

    def __missing__(self, surface: str) -> int:
        code = self[surface] = self._analyse(surface)
        return code


class Tokenizer:
    """Splits text into maximal alphanumeric runs with character offsets.

    Lowercasing applies only to the stem and stopword lookup; the surface
    form is the verbatim slice of the input so offsets round-trip. Stems
    are interned in one vocabulary: a term id indexes it, for every
    document this tokenizer analyses.
    """

    def __init__(self, stemmer: Stemmer | None = None, stopwords: StopwordList | None = None):
        self._stemmer = stemmer or LightStemmer()
        self._stopwords = stopwords or default_stopwords()
        # Stems by term id, and the id of each stem. Append-only, so the ids
        # held by documents stay valid.
        self._vocabulary: list[str] = []
        self._term_ids: dict[str, int] = {}
        # surface -> term id << 32 | (stopword id + 1). Valid for the
        # tokenizer's lifetime because the stemmer and stopword list are
        # read-only.
        self._codes = _SurfaceCodes(self._analyse)

    @property
    def identity(self) -> str:
        return TOKENIZER_ID

    @property
    def stemmer(self) -> Stemmer:
        return self._stemmer

    @property
    def stopwords(self) -> StopwordList:
        return self._stopwords

    def term_id(self, stem: str) -> int:
        """The stem's term id; -1 when no text this tokenizer analysed held it."""
        return self._term_ids.get(stem, -1)

    def _analyse(self, surface: str) -> int:
        lower = surface.lower()
        stem = self._stemmer.stem(lower)
        term_id = self._term_ids.get(stem)
        if term_id is None:
            term_id = self._term_ids[stem] = len(self._vocabulary)
            self._vocabulary.append(stem)
        return term_id << _CODE_SHIFT | (self._stopwords.position(lower) + 1)

    def _restore(self, vocabulary: list[str]) -> None:
        """Take a stored vocabulary, whose stems are numbered by position,
        before this tokenizer analyses any text."""
        self._vocabulary[:] = vocabulary
        self._term_ids.update((stem, i) for i, stem in enumerate(vocabulary))
        if len(self._term_ids) != len(vocabulary):
            raise CorpusError("the stored vocabulary lists a stem twice")

    def _columns(self, text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Term ids, char starts, char ends and stopword ids of the text's tokens."""
        separated, edges = _token_edges(text)
        surfaces = separated.decode("ascii").split()
        codes = np.fromiter(map(self._codes.__getitem__, surfaces), np.int64, len(surfaces))
        return (
            (codes >> _CODE_SHIFT).astype(np.int32),
            edges[0::2],
            edges[1::2],
            ((codes & _STOPWORD_MASK) - 1).astype(np.int16),
        )

    def tokenize(self, text: str) -> list[Token]:
        return _tokens(text, self._vocabulary, self._columns(text))

    def document(self, doc_id: str, text: str) -> "Document":
        """The text as a Document over this tokenizer's vocabulary."""
        return Document(doc_id, text, self._columns(text), self._vocabulary)


def _tokens(text: str, vocabulary: list[str], columns: Sequence[np.ndarray]) -> list[Token]:
    term_ids, starts, ends, stopword_ids = (c.tolist() for c in columns)
    return [
        Token(text[s:e], vocabulary[t], s, e, w >= 0)
        for t, s, e, w in zip(term_ids, starts, ends, stopword_ids)
    ]


class Document:
    """A tokenized document held as token columns; stopwords are retained.

    Token i has stem ``vocabulary[term_ids[i]]`` (int32 ids), spans
    ``raw_text[char_starts[i]:char_ends[i]]`` (int64 offsets) and has
    stopword id ``stopword_ids[i]`` (int16): -1 for a non-stopword, else the
    position of its lowercased form among the stopword list's sorted terms.
    The columns are read-only. Term ids mean something only with their
    vocabulary, which a saved store keeps beside them; no ordering reads them.
    """

    __slots__ = (
        "doc_id", "raw_text", "term_ids", "char_starts", "char_ends", "stopword_ids",
        "vocabulary", "_stems",
    )

    def __init__(self, doc_id: str, raw_text: str, columns: Sequence, vocabulary: list[str]):
        """A document from term ids, char starts, char ends and stopword ids."""
        arrays = [np.asarray(c, dtype) for c, dtype in zip(columns, _COLUMN_DTYPES)]
        for a in arrays:
            a.flags.writeable = False
        self.doc_id = doc_id
        self.raw_text = raw_text
        self.term_ids, self.char_starts, self.char_ends, self.stopword_ids = arrays
        self.vocabulary = vocabulary
        self._stems: list[str] | None = None

    @property
    def length(self) -> int:
        return len(self.term_ids)

    @property
    def tokens(self) -> list[Token]:
        """The tokens, built from the columns on every call."""
        columns = (self.term_ids, self.char_starts, self.char_ends, self.stopword_ids)
        return _tokens(self.raw_text, self.vocabulary, columns)

    def stems(self) -> list[str]:
        if self._stems is None:
            self._stems = list(map(self.vocabulary.__getitem__, self.term_ids.tolist()))
        return self._stems

    def __repr__(self) -> str:
        return f"Document({self.doc_id!r}, {self.length} tokens)"


class Query:
    """A tokenized query; stopwords are removed."""

    __slots__ = ("query_id", "text", "tokens")

    def __init__(self, query_id: str, text: str, tokenizer: Tokenizer):
        self.query_id = query_id
        self.text = text
        self.tokens = [t for t in tokenizer.tokenize(text) if not t.is_stopword]

    def stems(self) -> list[str]:
        return [t.stem for t in self.tokens]

    @property
    def unique_term_count(self) -> int:
        return len(set(t.stem for t in self.tokens))

    def __repr__(self) -> str:
        return f"Query({self.query_id!r}, {self.text!r})"


class CorpusStore:
    """Immutable collection of documents plus the analysis-chain manifest."""

    def __init__(self, documents: list[Document], tokenizer: Tokenizer, source_format: str):
        self.documents = documents
        self.tokenizer = tokenizer
        self.source_format = source_format
        self.by_id = {d.doc_id: d for d in documents}

    def __len__(self) -> int:
        return len(self.documents)

    def get(self, doc_id: str) -> Document:
        return self.by_id[doc_id]

    def doc_ids(self) -> list[str]:
        return [d.doc_id for d in self.documents]

    def checksum(self) -> str:
        return _records_checksum((d.doc_id, d.raw_text) for d in self.documents)

    def manifest(self) -> dict:
        """The corpus and the identities of its analysis chain."""
        return {
            "version": _CORPUS_MANIFEST_VERSION,
            "format": self.source_format,
            "doc_count": len(self.documents),
            "token_count": sum(d.length for d in self.documents),
            "tokenizer": self.tokenizer.identity,
            "stemmer": self.tokenizer.stemmer.identity,
            "stopwords": self.tokenizer.stopwords.name,
            "checksum": self.checksum(),
        }

    @cached_property
    def analysis(self) -> tuple[np.ndarray, list[str]]:
        """Every document's term ids, concatenated in store order, and the
        distinct stems of the texts in order of first occurrence, with the
        ids numbering them. A tokenizer that analysed only these texts, in
        this order, numbered its stems so; one that analysed other text
        first did not, and its ids are renumbered here."""
        ids = np.concatenate([d.term_ids for d in self.documents] or [np.zeros(0, np.int32)])
        if not len(ids):
            return ids, []
        vocabulary = self.tokenizer._vocabulary
        # The ids number stems by first occurrence iff the first id is 0 and
        # each later one is at most one above the largest before it.
        peak = np.maximum.accumulate(ids)
        if ids[0] == 0 and not np.any(ids[1:] > peak[:-1] + 1):
            return ids, vocabulary[: int(peak[-1]) + 1]
        distinct, first = np.unique(ids, return_index=True)
        order = distinct[np.argsort(first)]
        renumbered = np.empty(len(vocabulary), np.int32)
        renumbered[order] = np.arange(len(order), dtype=np.int32)
        return renumbered[ids], [vocabulary[t] for t in order.tolist()]

    def _write_analysis(self, directory: Path) -> dict[str, str]:
        """Write the analysis files; their sha256 digests by file name."""
        term_ids, stems = self.analysis
        stopword_ids = np.concatenate(
            [d.stopword_ids for d in self.documents] or [np.zeros(0, np.int16)]
        )
        digests = {}
        for name, data in (
            (_TERM_IDS, term_ids.astype("<i4", copy=False)),
            (_STOPWORD_IDS, stopword_ids.astype("<i2", copy=False)),
            (_VOCABULARY, "".join(s + "\n" for s in stems).encode("ascii")),
        ):
            (directory / name).write_bytes(data)
            digests[name] = hashlib.sha256(data).hexdigest()
        return digests

    def save(self, directory: str | Path) -> dict:
        """Persist the texts, their analysis and the manifest. The bytes
        depend on the texts alone, not on what the tokenizer analysed before
        them. Returns the manifest written."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        docs_path = directory / "docs.jsonl"
        with docs_path.open("w", encoding="utf-8") as f:
            for d in self.documents:
                f.write(json.dumps({"id": d.doc_id, "text": d.raw_text}, sort_keys=True))
                f.write("\n")
        files = self._write_analysis(directory)
        manifest = {**self.manifest(), "version": STORE_VERSION, "files": files}
        (directory / "manifest.json").write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        return manifest

    @classmethod
    def load(cls, directory: str | Path, stopwords: StopwordList | None = None) -> "CorpusStore":
        """The saved store. Its documents are built from the stored analysis,
        with char offsets from the texts' bytes: nothing is tokenized again."""
        directory = Path(directory)
        manifest = _read_manifest(directory / "manifest.json")
        stopwords = stopwords or default_stopwords()
        if stopwords.name != manifest["stopwords"]:
            raise CorpusError(
                f"stopword list mismatch: store has {manifest['stopwords']!r}, "
                f"got {stopwords.name!r}"
            )
        tokenizer = Tokenizer(stemmer_by_identity(manifest["stemmer"]), stopwords)
        records = list(_iter_jsonl_records(directory / "docs.jsonl"))
        if _records_checksum(records) != manifest["checksum"]:
            raise CorpusError("store checksum mismatch: docs.jsonl was modified")
        data = {
            name: _verified_file(directory / name, manifest["files"][name])
            for name in _ANALYSIS_FILES
        }
        term_ids = np.frombuffer(data[_TERM_IDS], "<i4")
        stopword_ids = np.frombuffer(data[_STOPWORD_IDS], "<i2")
        try:
            stems = data[_VOCABULARY].decode("ascii").split("\n")[:-1]
        except UnicodeDecodeError as exc:
            raise CorpusError(f"{directory / _VOCABULARY}: not ASCII at byte {exc.start}") from None
        tokenizer._restore(stems)
        vocabulary = tokenizer._vocabulary
        _check_ids(directory / _TERM_IDS, term_ids, 0, len(vocabulary))
        _check_ids(directory / _STOPWORD_IDS, stopword_ids, -1, len(stopwords))
        docs, start = [], 0
        for doc_id, text in records:
            edges = _token_edges(text)[1]
            end = start + len(edges) // 2
            columns = (term_ids[start:end], edges[0::2], edges[1::2], stopword_ids[start:end])
            docs.append(Document(doc_id, text, columns, vocabulary))
            start = end
        for name, ids in ((_TERM_IDS, term_ids), (_STOPWORD_IDS, stopword_ids)):
            if len(ids) != start:
                raise CorpusError(
                    f"{directory / name}: holds {len(ids)} ids, but the texts of docs.jsonl "
                    f"hold {start} tokens"
                )
        return cls(docs, tokenizer, manifest["format"])


def _read_manifest(path: Path) -> dict:
    """A store manifest this version reads: every field present, of this
    store version and tokenizer."""
    manifest = read_json_file(path, CorpusError)
    if isinstance(manifest, dict) and manifest.get("version", STORE_VERSION) != STORE_VERSION:
        raise CorpusError(
            f"{path}: unsupported store version {manifest['version']!r}; this psgrank reads "
            f"version {STORE_VERSION}, so run psgrank index again"
        )
    missing = [k for k in _MANIFEST_FIELDS if not isinstance(manifest, dict) or k not in manifest]
    if missing:
        raise CorpusError(
            f"{path}: expected a JSON object with {', '.join(_MANIFEST_FIELDS)} "
            f"(missing: {', '.join(missing)})"
        )
    if manifest["tokenizer"] != TOKENIZER_ID:
        raise CorpusError(
            f"{path}: tokenizer mismatch: store has {manifest['tokenizer']!r}, "
            f"this psgrank has {TOKENIZER_ID!r}"
        )
    files, names = manifest["files"], _ANALYSIS_FILES
    if not (isinstance(files, dict) and all(isinstance(files.get(n), str) for n in names)):
        raise CorpusError(
            f"{path}: 'files' must map {', '.join(names)} to sha256 digests"
        )
    return manifest


def _verified_file(path: Path, sha256: str) -> bytes:
    """The file's bytes, checked against the digest its manifest records."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise CorpusError(f"{path}: missing from the store") from None
    if hashlib.sha256(data).hexdigest() != sha256:
        raise CorpusError(f"{path}: sha256 mismatch: the file was modified")
    return data


def _check_ids(path: Path, ids: np.ndarray, low: int, stop: int) -> None:
    if len(ids) and not (low <= ids.min() and ids.max() < stop):
        raise CorpusError(
            f"{path}: ids span {ids.min()} to {ids.max()}, outside {low} to {stop - 1}"
        )


def _records_checksum(records: Iterable[tuple[str, str]]) -> str:
    h = hashlib.sha256()
    for doc_id, text in records:
        h.update(doc_id.encode("utf-8"))
        h.update(b"\x00")
        h.update(text.encode("utf-8"))
        h.update(b"\x01")
    return h.hexdigest()


def _iter_jsonl_records(path: Path) -> Iterator[tuple[str, str]]:
    with path.open("rb") as f:
        for lineno, raw in enumerate(f, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorpusError(
                    f"{path}:{lineno}: not UTF-8: byte 0x{raw[exc.start]:02x} "
                    f"at column {exc.start + 1}"
                ) from None
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: malformed JSON record: {exc}") from None
            if not isinstance(rec, dict) or "id" not in rec or "text" not in rec:
                raise CorpusError(f"{path}:{lineno}: record must carry 'id' and 'text' fields")
            text, title = rec["text"], rec.get("title")
            if not isinstance(text, str) or not isinstance(title, (str, type(None))):
                raise CorpusError(f"{path}:{lineno}: 'text' and 'title' must be strings")
            if title:
                text = title + "\n" + text
            doc_id = str(rec["id"])
            try:  # JSON can escape a lone surrogate; the store's UTF-8 cannot hold one.
                doc_id.encode("utf-8"), text.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise CorpusError(
                    f"{path}:{lineno}: 'id', 'text' and 'title' must not hold an unpaired "
                    f"surrogate, found {exc.object[exc.start]!r}"
                ) from None
            yield doc_id, text


_DOC_RE = re.compile(r"<DOC>(.*?)</DOC>", re.DOTALL)
_DOCNO_RE = re.compile(r"<DOCNO>\s*(.*?)\s*</DOCNO>", re.DOTALL)
_TEXT_RE = re.compile(r"<TEXT>(.*?)</TEXT>", re.DOTALL)


def _block_byte_offset(path: Path, n: int) -> int:
    """The byte offset in the file of its ``n``-th ``<DOC>`` block. Reading
    text translates line ends, so the block is found again in the file's
    bytes, where it is the ``n``-th match too."""
    raw_doc_re = re.compile(_DOC_RE.pattern.encode("ascii"), re.DOTALL)
    return list(raw_doc_re.finditer(path.read_bytes()))[n].start()


def _iter_trecweb_records(path: Path) -> Iterator[tuple[str, str]]:
    try:  # The whole file is decoded at once, so the error's offset is the file's.
        data = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start]
        raise CorpusError(f"{path}: not UTF-8: byte 0x{bad:02x} at byte {exc.start}") from None
    if "<DOC>" in data and "</DOC>" not in data:
        raise CorpusError(f"{path}: unterminated <DOC> block")
    for n, m in enumerate(_DOC_RE.finditer(data)):
        block = m.group(1)
        docno = _DOCNO_RE.search(block)
        if docno is None:
            offset = _block_byte_offset(path, n)
            raise CorpusError(f"{path}: <DOC> block at byte {offset} has no <DOCNO>")
        texts = _TEXT_RE.findall(block)
        if texts:
            body = "\n".join(t.strip() for t in texts)
        else:
            body = _DOCNO_RE.sub("", block).strip()
        yield docno.group(1), body


_RECORD_READERS = {"jsonl": _iter_jsonl_records, "trecweb": _iter_trecweb_records}
CORPUS_FORMATS = tuple(_RECORD_READERS)


def ingest_corpus(
    source: str | Path,
    corpus_format: str = "jsonl",
    tokenizer: Tokenizer | None = None,
) -> CorpusStore:
    """Read a corpus file into a CorpusStore.

    Supported formats: ``jsonl`` (objects with id/text and optional title)
    and ``trecweb`` (``<DOC>`` blocks with ``<DOCNO>`` and body text).
    Duplicate ids and malformed records raise :class:`CorpusError`; empty
    texts are kept (with a warning) so qrels referencing them resolve.
    """
    path = Path(source)
    if not path.exists():
        raise CorpusError(f"corpus file not found: {path}")
    if corpus_format not in _RECORD_READERS:
        raise CorpusError(f"unknown corpus format: {corpus_format!r}")
    records = _RECORD_READERS[corpus_format](path)

    tokenizer = tokenizer or Tokenizer()
    documents = []
    seen = set()
    for doc_id, text in records:
        if doc_id in seen:
            raise CorpusError(f"duplicate doc_id: {doc_id!r}")
        seen.add(doc_id)
        doc = tokenizer.document(doc_id, text)
        if not doc.length:
            warnings.warn(f"document {doc_id!r} has no tokens", stacklevel=2)
        documents.append(doc)
    return CorpusStore(documents, tokenizer, corpus_format)


def load_topics(path: str | Path, tokenizer: Tokenizer | None = None) -> list[Query]:
    """Load a tab-separated topics file: ``query_id<TAB>title text``."""
    path = Path(path)
    tokenizer = tokenizer or Tokenizer()
    queries = []
    seen = set()
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t", 1)
        if len(parts) != 2:
            raise CorpusError(f"{path}:{lineno}: expected query_id<TAB>text")
        query_id, text = parts[0].strip(), parts[1].strip()
        if query_id in seen:
            raise CorpusError(f"{path}:{lineno}: duplicate query_id {query_id!r}")
        seen.add(query_id)
        queries.append(Query(query_id, text, tokenizer))
    return queries
