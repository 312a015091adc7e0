"""The four evaluation datasets (paper §7.1, Table 1).

Each spec is calibrated so that the generated corpora match the paper's
input/output token distributions and task characters:

=========  ==================  ============  ===========
dataset    task type           input tokens  output tokens
=========  ==================  ============  ===========
squad      single-hop QA       0.4K–2K       5–10
musique    multi-hop QA        1K–5K         5–20
finsec     doc-level QA        4K–10K        20–40
qmsum      summarisation QA    4K–12K        20–60
=========  ==================  ============  ===========
"""

from __future__ import annotations

from repro.data.generator import Corpus, DatasetSpec, generate_dataset
from repro.data.types import DatasetBundle
from repro.llm.quality import QualityParams

__all__ = ["DATASET_NAMES", "get_spec", "build_dataset"]


_SQUAD = DatasetSpec(
    name="squad",
    metadata=(
        "The dataset consists of short encyclopedia passages about "
        "places, people and organizations; questions ask for a single "
        "stated fact. The chunk size is 256 tokens."
    ),
    style="plain",
    entity_kind="place",
    chunk_tokens=256,
    n_docs=48,
    doc_token_range=(400, 2_000),
    facts_per_doc=(4, 8),
    value_words=(2, 6),
    verbosity_range=(8, 16),
    attribute_families=(
        "birth county", "founding year", "location country", "population size",
        "team name", "award title", "construction date", "namesake origin",
    ),
    attribute_qualifiers=("record", "entry", "listing", "account"),
    pieces_probs=((1, 0.85), (2, 0.15)),
    complexity_high_base=0.08,
    complexity_high_per_piece=0.25,
    joint_prob_single=0.05,
    cross_doc_queries=False,
    n_queries=200,
    filler_topic_rate=0.15,
    answer_template="the answer is",
    quality=QualityParams(token_match_rate=0.78, noise_rate_stuff=0.5),
)

_MUSIQUE = DatasetSpec(
    name="musique",
    metadata=(
        "The dataset consists of multi-hop reasoning questions over "
        "encyclopedia articles; answering requires combining facts "
        "from multiple documents. The chunk size is 384 tokens."
    ),
    style="plain",
    entity_kind="person",
    chunk_tokens=384,
    n_docs=48,
    doc_token_range=(1_000, 5_000),
    facts_per_doc=(5, 9),
    value_words=(2, 6),
    verbosity_range=(12, 22),
    attribute_families=(
        "home country", "spouse name", "director name", "parent company",
        "capital city", "founder name", "language spoken", "birth year",
    ),
    attribute_qualifiers=("record", "profile", "history"),
    pieces_probs=((1, 0.10), (2, 0.35), (3, 0.35), (4, 0.20)),
    complexity_high_base=0.20,
    complexity_high_per_piece=0.20,
    joint_prob_single=0.10,
    cross_doc_queries=True,
    n_queries=200,
    filler_topic_rate=0.05,
    answer_template="the answer is",
    quality=QualityParams(token_match_rate=0.62, noise_rate_stuff=0.6),
)

_FINSEC = DatasetSpec(
    name="finsec",
    metadata=(
        "The dataset consists of multiple chunks of information from "
        "Fortune 500 companies on financial reports from every quarter "
        "of 2023 and 2024, including revenue growth indicators, product "
        "release information and sales. The chunk size is 1024 tokens."
    ),
    style="report",
    entity_kind="corp",
    chunk_tokens=1_024,
    n_docs=36,
    doc_token_range=(4_000, 10_000),
    facts_per_doc=(8, 14),
    value_words=(4, 8),
    verbosity_range=(20, 40),
    attribute_families=(
        "operating cost", "net revenue", "gross margin",
        "capital expenditure", "cash flow", "share buyback",
        "product revenue", "guidance outlook",
    ),
    attribute_qualifiers=(
        "q1 2023", "q2 2023", "q3 2023", "q4 2023",
        "q1 2024", "q2 2024", "q3 2024",
    ),
    pieces_probs=((2, 0.60), (3, 0.30), (4, 0.10)),
    complexity_high_base=0.25,
    complexity_high_per_piece=0.12,
    joint_prob_single=0.10,
    cross_doc_queries=False,
    n_queries=200,
    filler_topic_rate=0.18,
    answer_template="based on the reports",
    quality=QualityParams(token_match_rate=0.70, noise_rate_stuff=0.6),
)

_QMSUM = DatasetSpec(
    name="qmsum",
    metadata=(
        "The dataset consists of long multi-domain meeting transcripts; "
        "queries ask for summaries of decisions, action items and "
        "discussions across meeting spans. The chunk size is 512 tokens."
    ),
    style="meeting",
    entity_kind="team",
    chunk_tokens=448,
    n_docs=32,
    doc_token_range=(4_000, 12_000),
    facts_per_doc=(10, 16),
    value_words=(4, 9),
    verbosity_range=(60, 110),
    attribute_families=(
        "budget planning", "remote hiring", "product roadmap",
        "interface design", "user research", "marketing launch",
        "release schedule", "training data",
    ),
    attribute_qualifiers=(
        "decision", "action items", "discussion", "disagreement", "follow up",
    ),
    pieces_probs=((3, 0.60), (4, 0.25), (5, 0.10), (6, 0.05)),
    complexity_high_base=0.45,
    complexity_high_per_piece=0.08,
    joint_prob_single=0.20,
    cross_doc_queries=False,
    n_queries=200,
    filler_topic_rate=0.08,
    answer_template="in summary the group agreed",
    quality=QualityParams(token_match_rate=0.55, noise_rate_stuff=0.7),
)

_SPECS: dict[str, DatasetSpec] = {
    spec.name: spec for spec in (_SQUAD, _MUSIQUE, _FINSEC, _QMSUM)
}

DATASET_NAMES: tuple[str, ...] = tuple(sorted(_SPECS))

#: Corpora by ``(name, seed)`` and bundles by ``(name, seed, n_queries)``.
_CORPORA: dict[tuple[str, int], Corpus] = {}
_CACHE: dict[tuple[str, int, int], DatasetBundle] = {}


def get_spec(name: str) -> DatasetSpec:
    """Look up a dataset spec by name."""
    try:
        return _SPECS[name]
    except KeyError:
        known = ", ".join(DATASET_NAMES)
        raise KeyError(f"unknown dataset {name!r}; known: {known}") from None


def build_dataset(
    name: str,
    seed: int = 0,
    n_queries: int | None = None,
    cache: bool = True,
) -> DatasetBundle:
    """Build (or fetch from cache) a dataset by name.

    ``n_queries`` overrides the spec's default query count (handy for
    fast tests); corpora are identical for any ``n_queries``, so cached
    builds of one ``(name, seed)`` share one corpus (store, facts, maps
    and tokenizer), and a smaller query set is a prefix of a larger
    one. ``cache=False`` builds everything fresh.
    """
    spec = get_spec(name)
    if n_queries is not None:
        from dataclasses import replace

        spec = replace(spec, n_queries=n_queries)
    key = (name, seed, spec.n_queries)
    if not cache:
        return generate_dataset(spec, seed=seed)
    if key not in _CACHE:
        bundle = generate_dataset(spec, seed=seed,
                                  corpus=_CORPORA.get((name, seed)))
        _CORPORA.setdefault((name, seed), Corpus.of(bundle))
        _CACHE[key] = bundle
    return _CACHE[key]
