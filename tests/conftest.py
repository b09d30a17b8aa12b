import json

import pytest

from psgrank.corpus import CorpusStore, Query, StopwordList, Tokenizer


TINY_STOPWORDS = ("the", "of", "and", "an")


@pytest.fixture
def tokenizer():
    """Tokenizer with a tiny stopword list so single-letter fixture terms
    survive query stopword removal."""
    return Tokenizer(stopwords=StopwordList("tiny", TINY_STOPWORDS))


def build_store(texts: dict[str, str], tokenizer: Tokenizer) -> CorpusStore:
    docs = [tokenizer.document(doc_id, text) for doc_id, text in texts.items()]
    return CorpusStore(docs, tokenizer, "jsonl")


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
