"""In-memory span and counter recorder, installed from outside the program.

``install`` replaces public psgrank names with timed wrappers at the place
where their callers look them up (``psgrank.experiment.retrieve_lm``,
``psgrank.cli.segment``, class attributes for methods). Spans are kept in
flat arrays and handed out once, when the traced run ends.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter


class Tracer:
    """Spans as (name, parent, start, end) in flat arrays, plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, counts: dict):
        """``fn`` timed as span ``name``.

        ``counts`` maps a counter to ``None`` (count calls) or to a function
        of ``(args, kwargs, result)`` giving the amount of work done.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            for counter, amount in counts.items():
                self.counters[counter] += 1 if amount is None else amount(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, **counts) -> None:
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(self.wrap(original.__func__, name, counts)))
        else:
            setattr(owner, attr, self.wrap(original, name, counts))

    def dump(self) -> dict:
        return {
            "names": self.names,
            "name_of": list(self.name_of),
            "parent": list(self.parent),
            "start": list(self.start),
            "end": list(self.end),
            "counters": dict(self.counters),
        }


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    from psgrank import cli, corpus, experiment, features, index, ltr

    def size(args, kwargs, result):
        return len(result)

    def first_arg_size(args, kwargs, result):
        return len(args[0])

    for module in (experiment, cli):
        tracer.patch(module, "ingest_corpus", "corpus.ingest", **{"corpus.docs": size})
        tracer.patch(module, "build_index", "index.build")
        tracer.patch(module, "retrieve_lm", "index.retrieve", **{"index.candidates": size})
        tracer.patch(module, "segment", "passage.segment", **{"passage.passages": size})
        tracer.patch(module, "doc_features", "features.doc", **{"features.doc_vectors": None})
        tracer.patch(
            module, "minmax_normalize", "features.minmax",
            **{"features.minmax_rows": first_arg_size},
        )
        for attr in ("train_pairwise", "train_coordinate_ascent"):
            tracer.patch(
                module, attr, "ltr.train",
                **{"ltr.trainings": None, "ltr.train_examples": first_arg_size},
            )
        tracer.patch(module, "average_precision", "evaluation.ap", **{"evaluation.ap_calls": None})
        tracer.patch(
            module, "interpolated_precision", "evaluation.ip", **{"evaluation.ip_calls": None}
        )
        tracer.patch(module, "paired_ttest", "evaluation.ttest")
    tracer.patch(experiment, "score", "ltr.score", **{"ltr.score_calls": None})
    # `psgrank train` imports score from psgrank.ltr inside the command.
    tracer.patch(ltr, "score", "ltr.score", **{"ltr.score_calls": None})
    for attr in ("rerank_rrf", "rerank_fpd"):
        tracer.patch(experiment, attr, "rank.fusion", **{"rank.fusion_calls": None})
    for attr in ("build_smpd_vectors", "build_jpds_vectors", "build_jpdm_vectors"):
        tracer.patch(experiment, attr, "rank.vectors", **{"rank.vectors_calls": None})
    tracer.patch(experiment, "write_trec_run", "rank.write")

    extractor = features.PassageFeatureExtractor
    tracer.patch(extractor, "__init__", "features.psg_extract")
    tracer.patch(extractor, "vector", "features.psg_extract", **{"features.psg_vectors": None})
    # ESA: query and passage profiles, and their cosines. Keywords are picked
    # only when a passage profile misses the cache, so their count is the
    # number of passage profiles computed.
    tracer.patch(features, "esa_retrieval_profile", "features.esa")
    tracer.patch(features, "profile_cosine", "features.esa")
    tracer.patch(features, "top_tfidf_stems", "features.esa", **{"features.esa_profiles": None})

    tracer.patch(corpus.CorpusStore, "save", "corpus.save")
    tracer.patch(corpus.CorpusStore, "load", "corpus.load", **{"corpus.docs": size})
    tracer.patch(index.PositionalIndex, "save", "index.save")
    tracer.patch(index.PositionalIndex, "load", "index.load")


def self_times(trace: dict) -> dict[str, float]:
    """Per span name, the summed duration minus the time its child spans cover."""
    names, name_of, parent = trace["names"], trace["name_of"], trace["parent"]
    duration = [e - s for s, e in zip(trace["start"], trace["end"])]
    covered = [0.0] * len(duration)
    for idx, p in enumerate(parent):
        if p >= 0:
            covered[p] += duration[idx]
    totals = dict.fromkeys(names, 0.0)
    for idx, name_id in enumerate(name_of):
        totals[names[name_id]] += duration[idx] - covered[idx]
    return totals
