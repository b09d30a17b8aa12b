import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from psgrank.corpus import CorpusStore, Query, StopwordList, Tokenizer
from psgrank.features import query_similarities
from psgrank.rank import (
    best_positional_similarities, docpsg_from_sims, plm_from_sims, qsf_from_sims,
)
from psgrank.synthetic import SyntheticSpec, generate


TINY_STOPWORDS = ("the", "of", "and", "an")


@pytest.fixture
def tokenizer():
    """Tokenizer with a tiny stopword list so single-letter fixture terms
    survive query stopword removal."""
    return Tokenizer(stopwords=StopwordList("tiny", TINY_STOPWORDS))


def build_store(texts: dict[str, str], tokenizer: Tokenizer) -> CorpusStore:
    docs = [tokenizer.document(doc_id, text) for doc_id, text in texts.items()]
    return CorpusStore(docs, tokenizer, "jsonl")


def json_without_cpu_features(targets, module: str, function: str):
    """The JSON that ``module.function()`` returns in a child process whose
    numpy dispatches none of ``targets``. Only targets this numpy dispatches
    and this CPU has are named (numpy refuses to import when told to disable
    a baseline feature, and warns about names it does not dispatch); on a
    CPU without them the child disables nothing."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    disabled = [t for t in targets if t in __cpu_dispatch__ and __cpu_features__.get(t)]
    tests_dir = Path(__file__).resolve().parent
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(disabled))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tests_dir.parent / "src"), str(tests_dir), env.get("PYTHONPATH", "")]
    )
    code = f"import json, {module}; print(json.dumps({module}.{function}()))"
    child = subprocess.run(
        [sys.executable, "-c", code], cwd=tests_dir, env=env,
        capture_output=True, text=True, check=True,
    )
    return json.loads(child.stdout)


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")


@pytest.fixture
def store_factory(tokenizer):
    def factory(texts: dict[str, str]) -> CorpusStore:
        return build_store(texts, tokenizer)

    return factory


def make_query(query_id: str, text: str, tokenizer: Tokenizer) -> Query:
    return Query(query_id, text, tokenizer)


# QSF, PLM and DocPsg as a run's pipeline composes them: the query's
# similarities from query_similarities, then the ranker's *_from_sims.


def qsf_ranking(query, index, doc_ids, passages_by_doc, params, lam, k=None):
    sims = query_similarities(query.stems(), index, doc_ids, passages_by_doc, params)
    return qsf_from_sims(query.query_id, *sims, passages_by_doc, lam, k)


def plm_ranking(query, store, index, doc_ids, passages_by_doc, params, sigma, lam, beta, k=None):
    sims = query_similarities(query.stems(), index, doc_ids, passages_by_doc, params)
    pos_sims = best_positional_similarities(
        query, store, index, doc_ids, passages_by_doc, params, sigma
    )
    return plm_from_sims(query.query_id, *sims, pos_sims, passages_by_doc, lam, beta, k)


def docpsg_ranking(query, index, doc_ids, passages_by_doc, params, lambda_max):
    sims = query_similarities(query.stems(), index, doc_ids, passages_by_doc, params)
    return docpsg_from_sims(
        query.query_id, *sims, passages_by_doc, index.doc_lengths, lambda_max
    )


def _edit_manifest(store, edit) -> None:
    path = store / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


def _replace_file(store, name: str, data: bytes) -> None:
    """Replace a store file and record its digest, so that only its content is wrong."""
    (store / name).write_bytes(data)
    _edit_manifest(store, lambda m: m["files"].update({name: hashlib.sha256(data).hexdigest()}))


def _ids_dropping_the_last(store) -> None:
    for name, size in (("term_ids.i32", 4), ("stopword_ids.i16", 2)):
        _replace_file(store, name, (store / name).read_bytes()[:-size])


def _out_of_range(name: str, dtype, value: int):
    def damage(store):
        ids = np.frombuffer((store / name).read_bytes(), dtype).copy()
        ids[-1] = value
        _replace_file(store, name, ids.tobytes())

    return damage


# Damage done to a saved store, and what the error CorpusStore.load raises
# for it must say.
STORE_DAMAGES = {
    **{
        f"{name} modified": (
            lambda store, name=name: (store / name).write_bytes(
                (store / name).read_bytes() + b"\n"
            ),
            f"{name}: sha256 mismatch",
        )
        for name in ("term_ids.i32", "stopword_ids.i16", "vocabulary.txt")
    },
    **{
        f"{name} missing": (
            lambda store, name=name: (store / name).unlink(),
            f"{name}: missing from the store",
        )
        for name in ("term_ids.i32", "stopword_ids.i16", "vocabulary.txt")
    },
    "term id out of range": (_out_of_range("term_ids.i32", "<i4", 10**6), "ids span"),
    "stopword id out of range": (_out_of_range("stopword_ids.i16", "<i2", 30000), "ids span"),
    "token count": (_ids_dropping_the_last, "but the texts of docs.jsonl hold"),
    "version 1": (
        lambda store: _edit_manifest(store, lambda m: m.update(version=1)),
        "unsupported store version 1",
    ),
    "other tokenizer": (
        lambda store: _edit_manifest(store, lambda m: m.update(tokenizer="regex-v0")),
        "tokenizer mismatch: store has 'regex-v0'",
    ),
    "no tokenizer": (
        lambda store: _edit_manifest(store, lambda m: m.pop("tokenizer")),
        "(missing: tokenizer)",
    ),
    "files not a mapping": (
        lambda store: _edit_manifest(store, lambda m: m.update(files=["term_ids.i32"])),
        "'files' must map term_ids.i32, stopword_ids.i16, vocabulary.txt to sha256 digests",
    ),
}



def noisy_corpus(out_dir, seed=7, n_queries=8):
    """A small synthetic corpus on which document rankers fall short of AP 1.

    The tiny corpus of the experiment tests lets passage-aware methods
    reach mean AP 1.0, so a wrong tuning pick changes no artifact. Here
    query terms are sparser (3 occurrences per term, distractors included),
    noise documents each carry one term of 3 queries (every 3-subset of the
    queries twice, 112 documents for the default 8 queries; the benchmark's
    deep corpus is built the same way), and document ids are shuffled, so
    breaking ties by id favours neither relevant documents nor distractors.
    With 8 queries some queries are validation queries in more than one
    fold, so work wrongly shared across folds changes the tuned values.
    """
    spec = SyntheticSpec(
        n_docs=8 * n_queries, n_queries=n_queries, doc_tokens=90, window_len=30,
        relevant_per_query=4, distractors_per_query=4, occurrences_per_term=3,
        distractor_occurrences=3, vocab_size=300, seed=seed,
    )
    paths = generate(spec, out_dir)
    rng = np.random.default_rng([seed, 1])
    corpus = [json.loads(line) for line in paths["corpus"].read_text().splitlines()]
    topics = {}
    for line in paths["topics"].read_text().splitlines():
        qid, text = line.split("\t", 1)
        topics[qid] = text.split()
    query_terms = {t for terms in topics.values() for t in terms}
    background = [t for rec in corpus for t in rec["text"].split() if t not in query_terms]
    subsets = list(itertools.combinations(sorted(topics), 3)) * 2
    for n, i in enumerate(rng.permutation(len(subsets))):
        tokens = [background[j] for j in rng.integers(0, len(background), size=spec.doc_tokens)]
        slots = rng.choice(spec.doc_tokens, size=3, replace=False)
        for slot, qid in zip(slots, subsets[i]):
            tokens[slot] = topics[qid][int(rng.integers(0, len(topics[qid])))]
        corpus.append({"id": f"noise{n:04d}", "text": " ".join(tokens)})
    order = np.random.default_rng([seed, 3]).permutation(len(corpus))
    new_ids = {rec["id"]: f"doc{n:04d}" for rec, n in zip(corpus, order)}
    write_jsonl(paths["corpus"], [{"id": new_ids[r["id"]], "text": r["text"]} for r in corpus])
    for name, sep, column in (("doc_qrels", " ", 2), ("psg_qrels", "\t", 1)):
        rows = [line.split(sep) for line in paths[name].read_text().splitlines()]
        for row in rows:
            row[column] = new_ids[row[column]]
        paths[name].write_text("".join(sep.join(row) + "\n" for row in rows))
    return paths
