"""Disjoint-set forest with the per-component bookkeeping grouping needs.

Each component tracks its voxel size, its internal difference (the largest
edge weight merged inside it so far), and an optional frozen mark.  Marks
identify components whose label is already emitted by the streaming driver:
two marked components must never merge, and a merge between a marked and an
unmarked component keeps the mark (the emitted label absorbs the new one).
"""


class Forest:
    __slots__ = ("parent", "size", "internal", "mark")

    def __init__(self, num_nodes: int, sizes=None):
        self.parent = list(range(num_nodes))
        self.size = list(sizes) if sizes is not None else [1] * num_nodes
        self.internal = [0.0] * num_nodes
        self.mark = [-1] * num_nodes

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> int:
        """Merge the components of roots a and b; the root of the larger one
        survives (a on a tie) and is returned."""
        if self.size[a] < self.size[b]:
            a, b = b, a
        self.parent[b] = a
        self.size[a] += self.size[b]
        if self.internal[b] > self.internal[a]:
            self.internal[a] = self.internal[b]
        if self.mark[b] >= 0:
            self.mark[a] = self.mark[b]
        return a
