"""Byte-for-byte pin of the four generated datasets (seed 0, spec sizes).

Each dataset is reduced to one sha256 over everything a run can see:
queries with their latent truth, facts, the chunk/fact and document
length maps, the chunks and the store's embedding matrix. Any change to
the generator, the word pools, the tokenizer or the embedder that moves
one byte of one corpus shows up here.

Regenerate (only when a change to the data is intended and explained)::

    PYTHONPATH=src python tests/test_dataset_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.data import DATASET_NAMES, build_dataset
from repro.data.types import DatasetBundle

GOLDEN = Path(__file__).parent / "golden" / "dataset_golden.json"


def fingerprint(bundle: DatasetBundle) -> str:
    """sha256 over a canonical rendering of a bundle's contents."""
    h = hashlib.sha256()

    def put(*parts: object) -> None:
        h.update(repr(parts).encode("utf-8"))
        h.update(b"\n")

    for q in bundle.queries:
        t = q.truth
        put("query", q.query_id, q.text, q.n_tokens, q.answer_tokens_estimate,
            t.complexity_high, t.joint_reasoning, t.required_fact_ids,
            t.summary_range, t.answer_template_tokens)
    for fid, f in bundle.facts.items():
        put("fact", fid, f.doc_id, f.entity, f.attribute, f.value_text,
            f.sentence, f.verbosity)
    for cid, fids in bundle.chunk_facts.items():
        put("chunk_facts", cid, fids)
    for doc_id, n in bundle.doc_tokens.items():
        put("doc_tokens", doc_id, n)
    for c in bundle.store._chunks:
        put("chunk", c.chunk_id, c.doc_id, c.position, c.text, c.n_tokens)
    h.update(bundle.store._vectors.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_dataset_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())
    bundle = build_dataset(name, seed=0, cache=False)
    assert fingerprint(bundle) == golden[name]


if __name__ == "__main__":
    golden = {name: fingerprint(build_dataset(name, seed=0, cache=False))
              for name in DATASET_NAMES}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(GOLDEN.read_text())
