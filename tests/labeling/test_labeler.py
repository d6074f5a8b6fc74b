"""Tests for label assignment: the compressed parse tree of Fig. 7."""

from repro.datasets.paper_example import paper_run, paper_specification
from repro.labeling.labels import ProductionStep as P
from repro.labeling.labels import RecursionStep as R
from repro.labeling.parse_tree import LabelTrie
from repro.labeling.labeler import Labeler


class TestPaperParseTreeLabels:
    """The labels of Fig. 7, shifted to 0-based indices.

    The paper writes, for example, ψV(b:2) = (1,3)(4,1) and
    ψV(a:1) = (1,2)(1,1,1)(2,1); with 0-based production/position/ordinal
    indices these become (0,2)(3,0) and (0,1)(0,0,0)(1,0).
    """

    def test_w1_children(self):
        run = paper_run()
        assert run.label_of("c:1") == (P(0, 0),)
        assert run.label_of("b:1") == (P(0, 3),)

    def test_b_children(self):
        run = paper_run()
        assert run.label_of("b:2") == (P(0, 2), P(3, 0))
        assert run.label_of("b:3") == (P(0, 2), P(3, 1))

    def test_recursion_chain_labels(self):
        run = paper_run()
        assert run.label_of("a:1") == (P(0, 1), R(0, 0, 0), P(1, 0))
        assert run.label_of("d:1") == (P(0, 1), R(0, 0, 0), P(1, 2))
        assert run.label_of("a:2") == (P(0, 1), R(0, 0, 1), P(1, 0))
        assert run.label_of("d:2") == (P(0, 1), R(0, 0, 1), P(1, 2))
        assert run.label_of("e:1") == (P(0, 1), R(0, 0, 2), P(2, 0))
        assert run.label_of("e:2") == (P(0, 1), R(0, 0, 2), P(2, 1))

    def test_labels_are_unique(self):
        run = paper_run(recursion_depth=4)
        labels = [node.label for node in run]
        assert len(labels) == len(set(labels))

    def test_label_depth_is_bounded_by_specification(self):
        # The compressed parse tree has depth bounded by the grammar, not the
        # run: deep recursion does not lengthen labels.
        shallow = paper_run(recursion_depth=1)
        deep = paper_run(recursion_depth=40)
        max_shallow = max(len(node.label) for node in shallow)
        max_deep = max(len(node.label) for node in deep)
        assert max_deep == max_shallow == 3


class TestLabelerRoot:
    def test_non_recursive_start(self):
        labeler = Labeler(paper_specification())
        label, chain = labeler.root()
        assert label == ()
        assert chain is None

    def test_recursive_start_module(self):
        from repro.workflow.simple import chain as chain_body
        from repro.workflow.spec import Production, Specification

        spec = Specification(
            start="S",
            productions=[
                Production("S", chain_body(["x", "S", "y"])),
                Production("S", chain_body(["x", "y"])),
            ],
        )
        labeler = Labeler(spec)
        label, context = labeler.root()
        assert label == (R(0, 0, 0),)
        assert context is not None
        assert context.ordinal == 0


class TestLabelTrie:
    def test_trie_mirrors_the_compressed_parse_tree(self):
        run = paper_run()
        trie = LabelTrie.from_run_nodes(run, run.node_ids())
        assert len(trie) == run.node_count
        # The root has four children: positions 0..3 of W1 (the recursion
        # chain of A hangs under the edge (0, 1)).
        assert len(trie.root.children) == 4
        r_node = trie.root.child(P(0, 1))
        assert r_node is not None
        assert r_node.is_recursive()
        assert len(r_node.children) == 3  # A:1, A:2, A:3
        assert not trie.root.is_recursive()

    def test_leaves(self):
        run = paper_run()
        trie = LabelTrie.from_run_nodes(run, run.node_ids())
        r_node = trie.root.child(P(0, 1))
        assert set(r_node.leaves()) == {"a:1", "a:2", "d:1", "d:2", "e:1", "e:2"}
        assert set(trie.root.leaves()) == set(run.node_ids())

    def test_find_and_height(self):
        run = paper_run()
        trie = LabelTrie.from_run_nodes(run, run.node_ids())
        node = trie.find(run.label_of("e:2"))
        assert node is not None
        assert node.payload == ['e:2']
        assert trie.find((P(9, 9),)) is None
        assert trie.height() == 3

    def test_partial_list(self):
        run = paper_run()
        trie = LabelTrie.from_run_nodes(run, ["d:1", "b:3"])
        assert len(trie) == 2
        assert set(trie.root.leaves()) == {"d:1", "b:3"}

    def test_render_smoke(self):
        run = paper_run()
        trie = LabelTrie.from_run_nodes(run, run.node_ids())
        text = trie.render()
        assert '<root>' in text
        assert 'R(0,0)#0' in text
