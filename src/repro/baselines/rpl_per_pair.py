"""Per-pair label decoding for all-pairs safe queries: Options S1 and S2.

Section IV-A answers an all-pairs safe query with the constant-time pairwise
decode of Algorithm 1.  The production evaluator
(:func:`repro.core.allpairs.all_pairs_iter`) decodes a structural-join group
at a time; the paper's two per-pair strategies stay here as the reference
points of the Fig. 13e-h experiments and the S1/S2 ablation:

* **S1 / RPL** — the pairwise decode on every pair of ``l1 × l2``;
  Θ(|l1| · |l2|) decodes.
* **S2 / optRPL** — the structural join of the two label tries (Algorithm 2)
  enumerates only the reachable pairs, and each is decoded once.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.allpairs import pair_blocks, structural_join
from repro.core.pairwise import answer_pairwise_query
from repro.core.query_index import QueryIndex
from repro.core.relations import NodePairs
from repro.labeling.parse_tree import LabelTrie
from repro.workflow.run import Run

__all__ = ["optrpl_all_pairs", "rpl_all_pairs"]

PairDecode = Callable[[str, str], bool]


def _pairwise_decode(run: Run, index: QueryIndex) -> PairDecode:
    def decode(u: str, v: str) -> bool:
        return answer_pairwise_query(index, run.label_of(u), run.label_of(v))

    return decode


def rpl_all_pairs(
    run: Run, l1: Sequence[str], l2: Sequence[str], index: QueryIndex
) -> NodePairs:
    """Option S1: the Algorithm-1 decode on every pair of the cross product."""
    decode = _pairwise_decode(run, index)
    return {(u, v) for u in dict.fromkeys(l1) for v in dict.fromkeys(l2) if decode(u, v)}


def optrpl_all_pairs(
    run: Run,
    l1: Sequence[str],
    l2: Sequence[str],
    index: QueryIndex,
    decode: PairDecode | None = None,
) -> NodePairs:
    """Option S2: the Algorithm-1 decode on every *reachable* pair.

    The structural join partitions the reachable pairs of the deduplicated
    lists, so each pair reaches ``decode`` (the pairwise decode by default)
    exactly once.
    """
    if decode is None:
        decode = _pairwise_decode(run, index)
    unique1, unique2 = list(dict.fromkeys(l1)), list(dict.fromkeys(l2))
    trie1 = LabelTrie.from_run_nodes(run, unique1)
    trie2 = trie1 if unique1 == unique2 else LabelTrie.from_run_nodes(run, unique2)
    return {
        (u, v)
        for group in structural_join(trie1, trie2, run.spec)
        for sources, targets in pair_blocks(group)
        for u in sources
        for v in targets
        if decode(u, v)
    }
