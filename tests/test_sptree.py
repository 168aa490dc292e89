import math

import pytest

from conftest import rand_reduced
from grigconj import sptree
from grigconj.words import EXACT_WEIGHTS, TABULATED_WEIGHTS, norm, norm9_universe, split_children


def reference_totals(w, floor=0.0, weights=EXACT_WEIGHTS):
    """(vertex count, total norm, total label length, height) over the
    vertices of norm >= floor that have no lighter ancestor, by plain
    recursion over ``split_children``."""

    def visit(u, depth):
        n = norm(u, weights)
        if n < floor:
            return 0, 0.0, 0, 0
        count, total, letters, height = 1, n, len(u), depth
        for c in split_children(u):
            k, t, l, h = visit(c, depth + 1)
            count, total, letters, height = count + k, total + t, letters + l, max(height, h)
        return count, total, letters, height

    return visit(w, 0)


def assert_matches_reference(tree, w, floor):
    count, total, letters, height = reference_totals(w, floor)
    assert tree.vertex_count == count
    assert tree.total_label_len == letters
    assert tree.height == height
    assert tree.total_norm == pytest.approx(total, rel=1e-9, abs=1e-12)


def vertex_words(w):
    """Every vertex label of the splitting tree of w, repeats included."""
    out, stack = [], [w]
    while stack:
        u = stack.pop()
        out.append(u)
        stack.extend(split_children(u))
    return out


class TestBuildTree:
    def test_identity_tree(self):
        t = sptree.build_tree("")
        assert t.vertex_count == 1
        assert t.height == 0
        assert t.total_norm == 0.0

    def test_single_letter_is_leaf(self):
        t = sptree.build_tree("d")
        assert t.vertex_count == 1
        assert t.height == 0
        assert split_children("d") == []

    def test_aba(self):
        t = sptree.build_tree("aba")
        assert t.vertex_count == 3
        assert sorted(vertex_words("aba")) == ["a", "aba", "c"]
        assert t.total_label_len == 5
        assert t.total_norm == pytest.approx(8.5557, abs=2e-3)
        tabulated = sum(norm(u, TABULATED_WEIGHTS) for u in vertex_words("aba"))
        assert tabulated == pytest.approx(5.5118 + 1.288 + 1.7559, abs=1e-9)

    def test_abab_children(self):
        assert split_children("abab") == ["ca", "ac"]
        t = sptree.build_tree("abab")
        kids = [sptree.build_tree(c) for c in ("ca", "ac")]
        assert t.vertex_count == 1 + sum(k.vertex_count for k in kids)
        assert t.height == 1 + max(k.height for k in kids)

    def test_children_match_split_children(self, rng):
        for _ in range(100):
            w = rand_reduced(rng.randrange(0, 60), rng)
            labels = vertex_words(w)
            assert sptree.build_tree(w).vertex_count == len(labels)
            for u in labels:
                assert (len(u) <= 1) == (split_children(u) == [])

    def test_edge_monotone_and_three_step_decrease(self, rng):
        for _ in range(60):
            w = rand_reduced(rng.randrange(0, 200), rng)
            for u0 in vertex_words(w):
                for u1 in split_children(u0):
                    assert len(u1) <= len(u0)
                    for u2 in split_children(u1):
                        for u3 in split_children(u2):
                            assert len(u3) < len(u0)


class TestAgainstReference:
    def test_random_words(self, rng):
        for _ in range(80):
            w = rand_reduced(rng.randrange(0, 300), rng)
            assert_matches_reference(sptree.build_tree(w), w, 0.0)
            assert_matches_reference(sptree.build_tree9(w), w, 9.0)

    def test_light_universe(self):
        for w in norm9_universe():
            assert_matches_reference(sptree.build_tree(w), w, 0.0)
            assert_matches_reference(sptree.build_tree9(w), w, 9.0)


class TestTree9:
    def test_light_word_gives_empty_tree(self):
        t9 = sptree.build_tree9("ab")
        assert (t9.vertex_count, t9.total_norm, t9.total_label_len, t9.height) == (0, 0.0, 0, 0)

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
        monkeypatch.setattr(sptree, "norm", lambda u: 1.0 if u == "abab" else 10.0)
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
        assert sptree.build_tree("").height == 0
        assert sptree.build_tree("aba").height == 1

    def test_logarithmic_growth_reported(self, rng):
        # Monitored, not asserted: heights should track log_1.22 of the size.
        sizes = [50, 200, 800]
        for n in sizes:
            u = rand_reduced(n, rng)
            v = rand_reduced(n, rng)
            h = max(sptree.build_tree(u).height, sptree.build_tree(v).height)
            bound = math.log(2 * n, 1.22)
            assert h <= bound + 20  # generous constant; empirical heights are far below
