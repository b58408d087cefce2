"""The benchmark's workloads: store shapes and seeded request streams.

Every input is a pure function of the workload and the ``--seed``: the
XMark documents (one generator seed per member), the order in which the
query clients walk their fixed-length sequences, and the documents the
writer edits.  The server process receives only the built store and the
requests.

Query sequences have a fixed length and are cycled, so the pattern of
result-cache hits and misses depends on the sequence, never on how fast
the code under test answers:

* ``hot-cached`` cycles ten structural queries; after the warm-up pass
  every timed answer is a cache hit.
* ``value-scan`` cycles a sequence holding every query of a
  parameterised space once.  The space (over 1100 queries) is larger
  than the result cache (1024 entries), so an LRU never hits on it.
* ``read-write`` reads structural queries between commits; each commit
  bumps the epoch and so fences every cached answer.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from typing import List, Sequence

#: Structural suite queries (S01, S02, S04-S07, S11, S14-S16 of
#: ``repro.harness.queries``).  None of them can match the subtree the
#: writer appends, so their answers do not change under commits.
STRUCTURAL = (
    "/descendant::profile/descendant::education",
    "/descendant::increase/ancestor::bidder",
    "//open_auction[bidder]/seller",
    "//open_auction[not(bidder)]",
    "//open_auction/bidder[1]/increase",
    "//open_auction/bidder[last()]",
    "//seller | //buyer",
    "//bidder[1]/following-sibling::bidder",
    "//profile/education/text()",
    "//description//keyword",
)

#: The subtree the writer appends as the last child of a member's root
#: element, and deletes again.  Appended last, it shifts no rank of an
#: existing node; its tags occur in no query.
NOTE_XML = "<benchnote><line>perf</line></benchnote>"
NOTE_QUERY = "//benchnote"


@dataclass(frozen=True)
class Workload:
    """One workload; ``BENCHMARK.json`` records why it was chosen."""

    name: str
    documents: int
    size_mb: float  #: XMark size of each member document
    shards: int
    backend: str  #: passed to the server explicitly
    clients: int  #: query clients (closed loops)
    reads_per_write: int  #: 0 = no concurrent writer


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="hot-cached",
            documents=8,
            size_mb=0.11,
            shards=4,
            backend="serial",
            clients=1,
            reads_per_write=0,
        ),
        Workload(
            name="value-scan",
            documents=8,
            size_mb=0.11,
            shards=4,
            backend="serial",
            clients=2,
            reads_per_write=0,
        ),
        Workload(
            name="read-write",
            documents=6,
            size_mb=0.55,
            shards=2,
            backend="fabric:2",
            clients=1,
            reads_per_write=3,
        ),
    )
}


def corpus(workload: Workload, seed: int, size_scale: float = 1.0):
    """The workload's member documents as ``(name, tree)`` pairs."""
    from repro.xmark.generator import XMarkConfig, generate

    size = workload.size_mb * size_scale
    return [
        (f"xmark-{i:02d}", generate(size, XMarkConfig(seed=seed * 1000 + i)))
        for i in range(workload.documents)
    ]


def value_families() -> List[List[str]]:
    """The ``value-scan`` space (1108 distinct queries), by family.

    The space is fixed: it does not depend on the documents, so every
    seed runs the same mix of predicate families.
    """
    vowels = "aeiou"
    return [
        [
            f'//person[@id="person{i}"]/{projection}'
            for i in range(16)
            for projection in (
                "name", "emailaddress", "phone", "homepage", "creditcard",
                "address/city", "profile/age", "profile/education",
            )
        ],
        [
            f"//open_auction[count(bidder) {op} {k}]{projection}"
            for op in (">=", "<=", "=")
            for k in range(10)
            for projection in ("", "/seller", "/current", "/itemref")
        ],
        [
            f"//open_auction[initial + {k} < current]{projection}"
            for k in range(250)
            for projection in ("", "/seller")
        ],
        [
            f'//item[starts-with(location, "{prefix}")]'
            for letter in string.ascii_uppercase
            for prefix in [letter] + [letter + v for v in vowels]
        ],
        [
            f'//item[starts-with(name, "{prefix}")]'
            for letter in string.ascii_lowercase
            for prefix in [letter] + [letter + v for v in vowels]
        ],
        [
            f'//person[profile/{field} = "{value}"]/{projection}'
            for field, values in (
                ("education", ("Graduate School", "College", "High School", "Other")),
                ("gender", ("male", "female")),
                ("business", ("Yes", "No")),
            )
            for value in values
            for projection in (
                "name", "emailaddress", "phone", "homepage", "address/city",
                "profile/age",
            )
        ],
    ]


def _interleave(families: Sequence[Sequence[str]]) -> List[str]:
    """Merge so that every prefix holds each family in proportion to its
    size: a run that gets through part of the cycle sees the same mix of
    cheap and costly predicates as any other run."""
    taken = [0] * len(families)
    merged = []
    for _ in range(sum(map(len, families))):
        family = min(
            (f for f in range(len(families)) if taken[f] < len(families[f])),
            key=lambda f: (taken[f] + 0.5) / len(families[f]),
        )
        merged.append(families[family][taken[family]])
        taken[family] += 1
    return merged


def client_sequences(workload: Workload, seed: int) -> List[List[str]]:
    """One fixed-length query sequence per client, each cycled."""
    rng = random.Random(f"{workload.name}-{seed}")
    if workload.name == "value-scan":
        families = value_families()
        for family in families:
            rng.shuffle(family)
        space = _interleave(families)
        # Disjoint halves: the two clients together hold each query
        # once, so every repeat is a full cycle (> cache capacity) away.
        return [space[c :: workload.clients] for c in range(workload.clients)]
    sequence = list(STRUCTURAL)
    rng.shuffle(sequence)
    return [sequence[c:] + sequence[:c] for c in range(workload.clients)]


def warmup_queries(workload: Workload, sequences: Sequence[Sequence[str]]) -> List[str]:
    """The warm-up pass run at the end of every set-up.

    ``hot-cached`` and ``read-write`` send their own queries once, which
    fills the result cache.  ``value-scan`` warms the code paths with
    the structural queries instead, so none of its timed queries is
    cached.
    """
    if workload.name == "value-scan":
        return list(STRUCTURAL)
    return sorted({q for sequence in sequences for q in sequence})


def update_ops(document: str, note_rank: int, insert: bool) -> List[dict]:
    """One commit: append the note to ``document``, or delete it again."""
    if insert:
        return [{"op": "insert", "document": document, "pre": 0, "xml": NOTE_XML}]
    return [{"op": "delete", "document": document, "pre": note_rank}]


def commit_stream(workload: Workload, seed: int, note_ranks: dict) -> List[List[dict]]:
    """A cycle of commits: insert then delete, visiting each document in
    a seeded order.

    Every second commit restores the store, so its size stays level
    however many commits a run makes.
    """
    documents = sorted(note_ranks)
    random.Random(f"writer-{workload.name}-{seed}").shuffle(documents)
    return [
        update_ops(document, note_ranks[document], insert)
        for document in documents
        for insert in (True, False)
    ]
