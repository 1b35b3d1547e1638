"""Rooted-tree overlays: pure helpers shared by the cluster forest and tests.

A rooted tree is represented by a ``parent`` map ``child -> (parent, eid)``
over a set of member nodes, with the root absent from the map.  These
helpers validate such maps and compute the structural quantities
(heights, depths, diameters) that Lemma 8 of the paper bounds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.errors import ValidationError

__all__ = ["RootedTree", "tree_from_parent_map"]


@dataclass(frozen=True)
class RootedTree:
    """An immutable rooted tree over integer node ids."""

    root: int
    parent: Mapping[int, tuple[int, int]]  # child -> (parent, eid)

    @property
    def members(self) -> frozenset[int]:
        return frozenset(self.parent) | {self.root}

    @property
    def size(self) -> int:
        return len(self.parent) + 1

    def children(self) -> dict[int, list[tuple[int, int]]]:
        """parent -> list of (child, eid), children sorted by id."""
        out: dict[int, list[tuple[int, int]]] = {}
        for child, (par, eid) in sorted(self.parent.items()):
            out.setdefault(par, []).append((child, eid))
        return out

    def depths(self) -> dict[int, int]:
        depth = {self.root: 0}
        kids = self.children()
        queue = deque([self.root])
        while queue:
            node = queue.popleft()
            for child, _eid in kids.get(node, ()):
                depth[child] = depth[node] + 1
                queue.append(child)
        if len(depth) != self.size:
            raise ValidationError("parent map is not a connected tree")
        return depth

    @property
    def height(self) -> int:
        return max(self.depths().values(), default=0)

    def distances_from(self, source: int) -> dict[int, int]:
        """Hop distance from ``source`` to every member, the tree seen
        as an undirected graph."""
        adjacency: dict[int, list[int]] = {v: [] for v in self.members}
        for child, (par, _eid) in self.parent.items():
            adjacency[child].append(par)
            adjacency[par].append(child)
        dist = {source: 0}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for nxt in adjacency[node]:
                if nxt not in dist:
                    dist[nxt] = dist[node] + 1
                    queue.append(nxt)
        if len(dist) != self.size:
            raise ValidationError("tree is not connected")
        return dist

    def diameter(self) -> int:
        """Exact diameter of the tree seen as an undirected graph."""
        dist = self.distances_from(self.root)
        end = max(dist, key=dist.__getitem__)
        return max(self.distances_from(end).values())

    def edge_ids(self) -> frozenset[int]:
        return frozenset(eid for _parent, eid in self.parent.values())

    def path_to_root(self, node: int) -> list[int]:
        """Edge ids along the path ``node -> root``."""
        path = []
        current = node
        seen = set()
        while current != self.root:
            if current in seen:
                raise ValidationError("cycle in parent map")
            seen.add(current)
            parent, eid = self.parent[current]
            path.append(eid)
            current = parent
        return path


def tree_from_parent_map(
    root: int, parent: Mapping[int, tuple[int, int]]
) -> RootedTree:
    """Validate and freeze a parent map into a :class:`RootedTree`."""
    tree = RootedTree(root=root, parent=dict(parent))
    tree.depths()  # raises ValidationError when malformed
    return tree


def bfs_tree(adjacency: Mapping[int, Iterable[tuple[int, int]]], root: int) -> RootedTree:
    """Build a BFS tree from ``node -> [(neighbor, eid), ...]`` adjacency."""
    parent: dict[int, tuple[int, int]] = {}
    seen = {root}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for neighbor, eid in adjacency.get(node, ()):
            if neighbor not in seen:
                seen.add(neighbor)
                parent[neighbor] = (node, eid)
                queue.append(neighbor)
    return RootedTree(root=root, parent=parent)
