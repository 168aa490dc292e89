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


def _materialize(top, expand, label) -> SplitNode:
    """Build the SplitNode tree below ``top`` without recursion.

    ``expand(item)`` lists an item's children left to right and
    ``label(item)`` gives its (word, label_norm).  Items are expanded top
    down, so parents get lower indices than their descendants, and nodes
    are built bottom up.
    """
    nodes: list = []
    stack = [(top, None)]
    while stack:
        item, parent = stack.pop()
        i = len(nodes)
        nodes.append((item, []))
        if parent is not None:
            nodes[parent][1].append(i)
        for child in reversed(expand(item)):
            stack.append((child, i))
    # Kids were recorded in pop order, i.e. left to right.
    built: list = [None] * len(nodes)
    for i in range(len(nodes) - 1, -1, -1):
        item, kids = nodes[i]
        built[i] = SplitNode(*label(item), tuple(built[j] for j in kids))
    return built[0]


def _summarize(root: SplitNode) -> SplitTree:
    """The tree rooted at ``root`` with its size, norm, letter and height
    totals, in one pass."""
    count = 0
    total = 0.0
    letters = 0
    height = 0
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        count += 1
        total += node.label_norm
        letters += len(node.word)
        if depth > height:
            height = depth
        for c in node.children:
            stack.append((c, depth + 1))
    return SplitTree(root, count, total, letters, height)


def build_tree(w: str, weights: NormWeights = EXACT_WEIGHTS) -> SplitTree:
    """Materialize the full splitting tree of ``w``.

    Every vertex is kept, repeats included: trees are not DAGs.
    Construction is iterative so the recursion depth of deep trees never
    hits the interpreter limit.
    """
    return _summarize(_materialize(w, split_children, lambda u: (u, norm(u, weights))))


def build_tree9(w: str, weights: NormWeights = EXACT_WEIGHTS) -> SplitTree:
    """The subtree of the splitting tree on vertices of norm >= 9.

    Empty when the root is already below 9.  Connectivity of the induced
    subgraph is asserted: every norm >= 9 vertex of the full tree must be
    reachable from the root through norm >= 9 vertices.
    """
    full = build_tree(w, weights)
    heavy_total = sum(1 for node in full if node.label_norm >= 9.0)
    if full.root.label_norm < 9.0:
        if heavy_total:
            raise AssertionError("norm >= 9 vertex below a light root")
        return SplitTree(None, 0, 0.0, 0, 0)
    tree = _summarize(
        _materialize(
            full.root,
            lambda node: [c for c in node.children if c.label_norm >= 9.0],
            lambda node: (node.word, node.label_norm),
        )
    )
    if tree.vertex_count != heavy_total:
        raise AssertionError("norm >= 9 vertices do not form a connected subtree")
    return tree


def tree_height(u: str, v: str, weights: NormWeights = EXACT_WEIGHTS) -> int:
    """max of the two splitting-tree heights."""
    return max(build_tree(u, weights).height, build_tree(v, weights).height)
