"""Splitting trees with norm accounting.

The splitting tree of a word records the recursion of the section maps:
even words branch into their two sections, odd words chain into the
reduced product of the sections of w·a, and words of length <= 1 are
leaves.  Above norm 9 the child norms contract geometrically, which is
what keeps total tree size linear in the root length.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import EXACT_WEIGHTS, NormWeights, norm, split_children


class SplitNode:
    __slots__ = ("word", "label_norm", "children")

    def __init__(self, word: str, label_norm: float, children: tuple):
        self.word = word
        self.label_norm = label_norm
        self.children = children

    def __repr__(self):
        return f"SplitNode({self.word!r}, {self.label_norm:.4f}, {len(self.children)} children)"


@dataclass(frozen=True)
class SplitTree:
    root: SplitNode | None
    vertex_count: int
    total_norm: float
    total_label_len: int
    height: int

    def __iter__(self):
        if self.root is None:
            return
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)


def _walk(w: str, weights: NormWeights, floor: float, keep: bool) -> SplitTree:
    """Totals over the vertices of norm >= ``floor`` in the splitting tree
    of ``w``, and their SplitNode tree when ``keep`` (else ``root`` is None).

    One depth-first walk over words, without recursion; it pops children
    right to left, and the totals are summed in that order.  It asserts
    that no vertex of norm >= ``floor`` has a lighter ancestor.
    """
    nodes: list = []    # (word, norm, kid indices right to left)
    count = letters = height = 0
    total = 0.0
    # (word, parent node index, depth, whether no ancestor is below floor)
    stack = [(w, -1, 0, True)]
    while stack:
        u, parent, depth, heavy_path = stack.pop()
        n = norm(u, weights)
        heavy = n >= floor
        if heavy:
            if not heavy_path:
                raise AssertionError(f"norm >= {floor} vertices do not form a connected subtree")
            count += 1
            total += n
            letters += len(u)
            if depth > height:
                height = depth
            if keep:
                if parent >= 0:
                    nodes[parent][2].append(len(nodes))
                parent = len(nodes)
                nodes.append((u, n, []))
        for c in split_children(u):
            stack.append((c, parent, depth + 1, heavy_path and heavy))
    # Children get higher indices than their parents: build bottom up.
    built: list = [None] * len(nodes)
    for i in range(len(nodes) - 1, -1, -1):
        u, n, kids = nodes[i]
        built[i] = SplitNode(u, n, tuple(built[j] for j in reversed(kids)))
    return SplitTree(built[0] if nodes else None, count, total, letters, height)


def build_tree(w: str, weights: NormWeights = EXACT_WEIGHTS) -> SplitTree:
    """Materialize the full splitting tree of ``w``.

    Every vertex is kept, repeats included: trees are not DAGs.
    """
    return _walk(w, weights, 0.0, True)


def build_tree9(w: str, weights: NormWeights = EXACT_WEIGHTS) -> SplitTree:
    """Totals of the subtree of the splitting tree on vertices of norm >= 9.

    No node is built: ``root`` is None, and the totals are zero when the
    root is already below 9.  The walk covers the full tree to assert
    that the norm >= 9 vertices are connected to the root.
    """
    return _walk(w, weights, 9.0, False)


def tree_height(u: str, v: str, weights: NormWeights = EXACT_WEIGHTS) -> int:
    """max of the two splitting-tree heights."""
    return max(build_tree(u, weights).height, build_tree(v, weights).height)
