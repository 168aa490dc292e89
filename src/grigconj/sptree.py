"""Splitting-tree totals with norm accounting.

The splitting tree of a word records the recursion of the section maps:
even words branch into their two sections, odd words chain into the
reduced product of the sections of w·a, and words of length <= 1 are
leaves.  Above norm 9 the child norms contract geometrically, which is
what keeps total tree size linear in the root length.

Only the totals are computed, with the exact norm weights; no tree is
built.  ``words.split_children`` gives the children of any vertex.
"""

from __future__ import annotations

from collections import namedtuple

from .words import norm, parse, split_children

SplitTree = namedtuple("SplitTree", "vertex_count total_norm total_label_len height")


def _walk(w: str, floor: float) -> SplitTree:
    """Totals over the vertices of norm >= ``floor`` in the splitting tree
    of ``w``.

    One depth-first walk over words, without recursion; it pops children
    right to left, and the totals are summed in that order.  It asserts
    that no vertex of norm >= ``floor`` has a lighter ancestor.
    """
    count = letters = height = 0
    total = 0.0
    # (word, depth, whether no ancestor is below floor)
    stack = [(w, 0, True)]
    while stack:
        u, depth, heavy_path = stack.pop()
        n = norm(u)
        heavy = n >= floor
        if heavy:
            if not heavy_path:
                raise AssertionError(f"norm >= {floor} vertices do not form a connected subtree")
            count += 1
            total += n
            letters += len(u)
            if depth > height:
                height = depth
        for c in split_children(u):
            stack.append((c, depth + 1, heavy_path and heavy))
    return SplitTree(count, total, letters, height)


def build_tree(w: str) -> SplitTree:
    """Totals of the full splitting tree of ``w``.

    ``w`` is parsed first, as the CLI parses it.  Every vertex counts,
    repeats included: trees are not DAGs.
    """
    return _walk(parse(w), 0.0)


def build_tree9(w: str) -> SplitTree:
    """Totals of the subtree of the splitting tree on vertices of norm >= 9.

    The totals are zero when the root is already below 9.  The walk
    covers the full tree to assert that the norm >= 9 vertices are
    connected to the root.  ``w`` is parsed first, as in ``build_tree``.
    """
    return _walk(parse(w), 9.0)
