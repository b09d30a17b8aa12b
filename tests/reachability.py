"""List the functions and methods of src/psgrank that no run enters.

Usage: python tests/reachability.py TINY_DIR

TINY_DIR holds the synthetic tiny corpus and the seven run configs that the
CI workflow writes (sims, features, passages-qsf, passages-ltr, ablated,
jpdm, one-point). Under ``sys.setprofile``, this script runs each config
with ``psgrank run``, then the store chain: index, segment (fixed and
sentence), features (passage and document), train (both trainers), eval
(doc_graded and char_focused), ttest and ablate. It prints every function
and method defined in src/psgrank that none of them entered.

It exits 1 when an unreached name is not in ALLOWED, or when a name in
ALLOWED was reached after all; otherwise 0. Each ALLOWED entry says why
the code stays although these runs do not enter it. Nested functions count
under their enclosing name (``f.<locals>.g``); lambdas and comprehensions
do not count.
"""

from __future__ import annotations

import ast
import contextlib
import os
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "psgrank"
sys.path.insert(0, str(SRC.parent))  # profile this checkout's psgrank

CONFIGS = ("sims", "features", "passages-qsf", "passages-ltr", "ablated", "jpdm", "one-point")

_SPANS = "benchmarks/spans.py wraps this name to time its layer"
_SEMANTIC = "reads a semantic resource (embeddings, synonyms, entities); no CI config names one"
_EXACT_STD = "SMPD's exact deviation step, for a document the float pass cannot round"
_FALLBACK = "JPDs/FPD's pick for a document with no ranked passage"
_SYNTHETIC = "the generator of TINY_DIR, which an earlier workflow step runs"

# Unreached by these runs on purpose: name -> why the code stays.
ALLOWED = {
    "corpus.Document.stems": "the oracles' token view of a stored document",
    "corpus.Document.tokens": "the oracles' token view of a stored document",
    "corpus.LightStemmer._undouble": "stems -ing and -ed words; the synthetic vocabulary has none",
    "corpus._block_byte_offset": "locates a byte that is not UTF-8, for the error",
    "corpus._check_utf8": "names the path, line and column of a byte that is not UTF-8",
    "corpus._iter_trecweb_records": "the TREC-web corpus format; CI corpora are JSONL",
    "evaluation.load_sentence_qrels": "sentence_binary qrels; CI judges passages by characters",
    "features.PassageFeatureExtractor._centroid": _SEMANTIC,
    "features.PassageFeatureExtractor.vector": _SPANS,
    "features.load_embeddings": _SEMANTIC,
    "features.load_entities": _SEMANTIC,
    "features.load_synonyms": _SEMANTIC,
    "features.top_tfidf_stems": _SPANS,
    "index.PositionalIndex._postings_json": _SPANS,
    "index.PositionalIndex.load": _SPANS,
    "index.PositionalIndex.positions": "the oracles' postings view of the index",
    "index.PositionalIndex.save": _SPANS,
    "ltr.LinearModel.load": "the reader of the model files that `psgrank train` writes",
    "rank.PassageRanks.passages_of": _FALLBACK,
    "rank.RankedListError.__init__": "the error of a ranked list that breaks a rule it must keep",
    "rank._common_scale": _EXACT_STD,
    "rank._fallback_by_query_sim": _FALLBACK,
    "rank._sqrt_ratio": _EXACT_STD,
    "synthetic.SyntheticSpec.__post_init__": _SYNTHETIC,
    "synthetic._background_vocab": _SYNTHETIC,
    "synthetic._query_term": _SYNTHETIC,
    "synthetic.generate": _SYNTHETIC,
    "synthetic.generate.<locals>.background": _SYNTHETIC,
}


def definitions() -> dict[tuple[str, int], str]:
    """(file name, first line of its code object) -> "module.qualname" for
    every def in src/psgrank; a decorated def's code starts at its first
    decorator."""
    out = {}

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(str(module), first)] = f"{module.stem}.{prefix}{child.name}"
                walk(child, module, f"{prefix}{child.name}.<locals>.")
            else:
                walk(child, module, prefix)

    for module in sorted(SRC.glob("*.py")):
        walk(ast.parse(module.read_text(encoding="utf-8")), module, "")
    return out


def run_everything(tiny: Path, work: Path) -> None:
    """The seven configs, then the store chain, each through ``cli.main``."""
    from psgrank import cli

    def psgrank(*argv):
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            code = cli.main([str(a) for a in argv])
        if code != 0:
            raise SystemExit(f"psgrank {' '.join(map(str, argv))} exited {code}")

    for name in CONFIGS:
        psgrank("run", "--config", tiny / f"{name}.json", "--out", work / name)
    store = work / "store"
    psgrank("index", "--corpus", tiny / "corpus.jsonl", "--out", store)
    psgrank("segment", "--store", store, "--length", 30, "--out", store / "passages.tsv")
    psgrank("segment", "--store", store, "--mode", "sentence", "--out", store / "sentences.tsv")
    for kind, qrels in (("psg", "psg_qrels.tsv"), ("doc", "doc_qrels.txt")):
        dump = store / f"{kind}.svmlight"
        psgrank(
            "features", "--store", store, "--topics", tiny / "topics.tsv", "--kind", kind,
            "--length", 30, "--normalize", "--qrels", tiny / qrels, "--out", dump,
        )
        for trainer in ("pairwise_hinge", "coordinate_ascent"):
            psgrank("train", "--features", dump, "--trainer", trainer,
                    "--out", store / f"{kind}-{trainer}.json")
    runs = work / "sims" / "runs"
    psgrank("eval", "--run", runs / "LM.trec", "--qrels", tiny / "doc_qrels.txt")
    psgrank(
        "eval", "--run", runs / "QSF.trec", "--qrels", tiny / "psg_qrels.tsv",
        "--mode", "char_focused", "--store", store, "--length", 30, "--json",
    )
    psgrank("ttest", "--run-a", runs / "LM.trec", "--run-b", runs / "SDM.trec",
            "--qrels", tiny / "doc_qrels.txt")
    psgrank("ablate", "--config", tiny / "features.json", "--feature", "psg.ESA",
            "--out", work / "ablate")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    tiny = Path(argv[0]).resolve()
    names = definitions()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    t0 = time.monotonic()
    with tempfile.TemporaryDirectory() as work:
        sys.setprofile(profile)
        try:
            run_everything(tiny, Path(work))
        finally:
            sys.setprofile(None)
    elapsed = time.monotonic() - t0
    reached = {names.get((str(Path(c.co_filename).resolve()), c.co_firstlineno)) for c in entered}
    unreached = sorted(set(names.values()) - reached)
    failed = False
    for name in unreached:
        reason = ALLOWED.get(name)
        failed |= reason is None
        print(f"unreached: {name}" + (f"  (allowed: {reason})" if reason else ""))
    for name in sorted(set(ALLOWED) & reached):
        failed = True
        print(f"reached but allowed as unreached: {name}")
    for name in sorted(set(ALLOWED) - set(names.values())):
        failed = True
        print(f"allowed but not defined: {name}")
    print(f"{len(names)} functions, {len(unreached)} unreached, {elapsed:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
