import pytest

from conftest import rand_reduced
from grigconj import sptree
from grigconj.words import TABULATED_WEIGHTS, norm, norm9_universe, split_children


class TestBuildTree:
    def test_identity_tree(self):
        t = sptree.build_tree("")
        assert t.vertex_count == 1
        assert t.height == 0
        assert t.total_norm == 0.0

    def test_single_letter_is_leaf(self):
        t = sptree.build_tree("d")
        assert t.vertex_count == 1
        assert t.root.children == ()

    def test_aba(self):
        t = sptree.build_tree("aba")
        assert t.vertex_count == 3
        assert {n.word for n in t} == {"aba", "c", "a"}
        assert t.total_norm == pytest.approx(8.5557, abs=2e-3)
        t_tab = sptree.build_tree("aba", TABULATED_WEIGHTS)
        assert t_tab.total_norm == pytest.approx(5.5118 + 1.288 + 1.7559, abs=1e-9)

    def test_abab_children(self):
        t = sptree.build_tree("abab")
        assert [c.word for c in t.root.children] == ["ca", "ac"]

    def test_children_match_split_children(self, rng):
        for _ in range(100):
            w = rand_reduced(rng.randrange(0, 60), rng)
            t = sptree.build_tree(w)
            for node in t:
                assert [c.word for c in node.children] == split_children(node.word)
                assert (len(node.word) <= 1) == (node.children == ())

    def test_edge_monotone_and_three_step_decrease(self, rng):
        for _ in range(60):
            w = rand_reduced(rng.randrange(0, 200), rng)
            t = sptree.build_tree(w)
            for n0 in t:
                for n1 in n0.children:
                    assert len(n1.word) <= len(n0.word)
                    for n2 in n1.children:
                        for n3 in n2.children:
                            assert len(n3.word) < len(n0.word)


class TestTree9:
    def test_light_word_gives_empty_tree(self):
        t9 = sptree.build_tree9("ab")
        assert t9.vertex_count == 0
        assert t9.root is None

    def test_heavy_word_counts_root(self, rng):
        seen = 0
        for _ in range(30):
            w = rand_reduced(rng.randrange(10, 120), rng)
            if norm(w) < 9:
                continue
            t9 = sptree.build_tree9(w)
            assert t9.vertex_count >= 1
            assert t9.total_label_len >= len(w)
            assert t9.total_norm >= norm(w)
            seen += 1
        assert seen >= 20

    def test_heavy_vertex_below_light_one_is_reported(self, monkeypatch):
        # abab splits into ca and ac: a light root over heavy children.
        monkeypatch.setattr(sptree, "norm", lambda u, weights: 1.0 if u == "abab" else 10.0)
        with pytest.raises(AssertionError, match="connected"):
            sptree.build_tree9("abab")

    def test_vertex_bound(self, rng):
        for _ in range(30):
            w = rand_reduced(100, rng)
            t9 = sptree.build_tree9(w)
            assert t9.vertex_count <= 4 * norm(w)

    def test_norm_bounds(self, rng):
        for _ in range(60):
            w = rand_reduced(rng.randrange(0, 150), rng)
            n = norm(w)
            t = sptree.build_tree(w)
            if n < 9:
                assert t.total_norm < 30
            else:
                t9 = sptree.build_tree9(w)
                assert t9.total_norm <= 35 * n
            assert t.total_norm <= 275 * n or n == 0
            assert t.total_label_len <= 800 * len(w) or not w

    def test_light_universe_total_norms_exhaustively(self):
        # Every word of norm < 9 must have total tree norm below 30.
        for w in norm9_universe():
            assert sptree.build_tree(w).total_norm < 30


class TestHeight:
    def test_examples(self):
        assert sptree.tree_height("", "") == 0
        assert sptree.tree_height("aba", "") == 1

    def test_logarithmic_growth_reported(self, rng):
        # Monitored, not asserted: heights should track log_1.22 of the size.
        import math

        sizes = [50, 200, 800]
        for n in sizes:
            u = rand_reduced(n, rng)
            v = rand_reduced(n, rng)
            h = sptree.tree_height(u, v)
            bound = math.log(2 * n, 1.22)
            assert h <= bound + 20  # generous constant; empirical heights are far below
