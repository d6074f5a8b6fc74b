"""Prior-work baselines used in the paper's experiments (Section IV-B, V).

* :mod:`repro.baselines.product_bfs` — the "simple algorithm" of
  Section III-B (Mendelzon & Wood [24]): traverse the run × DFA product.
  Linear in run size; it doubles as the ground-truth oracle in the tests.
* :mod:`repro.baselines.g1_parse_tree_joins` — Option G1 (Li & Moon [21]):
  evaluate the query parse tree bottom-up with relational joins.
* :mod:`repro.baselines.g2_rare_labels` — Option G2 (Koschmieder & Leser
  [20]): split the query at rare edge tags and search between rare edges.
* :mod:`repro.baselines.g3_label_index` — Option G3: the edge-tag inverted
  index combined with reachability labels, for IFQ-shaped queries.

and the paper's own strategies that the production engine replaced:

* :mod:`repro.baselines.rpl_per_pair` — Options S1 (RPL) and S2 (optRPL):
  the Algorithm-1 decode per pair, over the cross product or over the
  reachable pairs only.
* :mod:`repro.baselines.paper_decomposition` — the general-query scheme of
  Section IV-B: every safe subquery through labels, the remainder through
  whole-run joins, the node lists applied last.
"""

from repro.baselines.g1_parse_tree_joins import g1_all_pairs
from repro.baselines.g2_rare_labels import g2_all_pairs, g2_pairwise
from repro.baselines.g3_label_index import g3_all_pairs, g3_pairwise
from repro.baselines.paper_decomposition import paper_decomposition_all_pairs
from repro.baselines.product_bfs import product_bfs_all_pairs, product_bfs_pairwise
from repro.baselines.rpl_per_pair import optrpl_all_pairs, rpl_all_pairs

__all__ = [
    "g1_all_pairs",
    "g2_all_pairs",
    "g2_pairwise",
    "g3_all_pairs",
    "g3_pairwise",
    "optrpl_all_pairs",
    "paper_decomposition_all_pairs",
    "product_bfs_all_pairs",
    "product_bfs_pairwise",
    "rpl_all_pairs",
]
