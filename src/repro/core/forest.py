"""Physical spanning trees of the cluster hierarchy (Lemma 8).

Every cluster of every level owns a rooted spanning tree over its
physical member nodes, built only from spanner edges.  When non-center
``v`` merges into center ``u`` through the spanner edge ``(x, y)`` with
``x`` a member of ``v`` and ``y`` a member of ``u``, the tree of ``v``
is re-rooted at ``x`` and attached below ``y``.  Lemma 8 then bounds the
height of a level-``j`` tree by ``(3^j - 1) / 2`` and its diameter by
``3^j - 1``; the test suite checks both.

Cluster ids: by construction the id of a cluster equals the physical id
of its tree root (level-0 clusters are singletons named after their only
member, and merging preserves the center's root).
"""

from __future__ import annotations

from repro.errors import ValidationError
from repro.local.network import Network
from repro.local.tree import RootedTree

__all__ = ["ClusterForest"]


class ClusterForest:
    """Mutable forest of cluster spanning trees over the physical graph."""

    def __init__(self, network: Network) -> None:
        self._network = network
        self._parent: dict[int, tuple[int, int]] = {}  # phys -> (parent phys, eid)
        self._members: dict[int, list[int]] = {v: [v] for v in network.nodes()}
        # Flat union-find-style array: _root_of[phys] -> current cluster id.
        # Kept eagerly exact on attach (no path compression needed), so
        # hot paths may index it directly via :attr:`root_of`.
        self._root_of: list[int] = list(network.nodes())

    # ------------------------------------------------------------------
    def members(self, cid: int) -> list[int]:
        """Physical members of cluster ``cid`` (unsorted, root included)."""
        return list(self._members[cid])

    def size(self, cid: int) -> int:
        return len(self._members[cid])

    def cluster_of(self, phys: int) -> int:
        """The root id of the cluster currently containing ``phys``."""
        return self._root_of[phys]

    @property
    def root_of(self) -> list[int]:
        """The flat phys -> cluster-id array (runtime-side; do not mutate)."""
        return self._root_of

    def cluster_ids(self) -> list[int]:
        return sorted(self._members)

    def attach(self, joiner: int, center: int, eid: int) -> None:
        """Merge cluster ``joiner`` into ``center`` via spanner edge ``eid``."""
        if joiner == center:
            raise ValidationError("a cluster cannot join itself")
        if joiner not in self._members or center not in self._members:
            raise ValidationError("attach of unknown cluster id")
        a, b = self._network.endpoints(eid)
        in_joiner = {p for p in (a, b) if self._root_of[p] == joiner}
        in_center = {p for p in (a, b) if self._root_of[p] == center}
        if len(in_joiner) != 1 or len(in_center) != 1:
            raise ValidationError(
                f"edge {eid} does not cross from cluster {joiner} to {center}"
            )
        x = in_joiner.pop()
        y = in_center.pop()
        self._reroot(joiner, x)
        self._parent[x] = (y, eid)
        moved = self._members.pop(joiner)
        self._members[center].extend(moved)
        for phys in moved:
            self._root_of[phys] = center

    def bulk_attach(
        self,
        joins,
        joiner_ends,
        center_ends,
    ) -> None:
        """Apply one level's join set without per-call validation.

        ``joins`` is the level's ``(joiner, center, eid)`` sequence and
        ``joiner_ends``/``center_ends`` the corresponding physical
        endpoints of each edge, already resolved (and therefore already
        validated) by the caller — the columnar level loop, which has
        them as arrays anyway.  State mutations are exactly those of
        repeated :meth:`attach` calls.
        """
        members = self._members
        parent = self._parent
        root_of = self._root_of
        for (joiner, center, eid), x, y in zip(joins, joiner_ends, center_ends):
            self._reroot(joiner, x)
            parent[x] = (y, eid)
            moved = members.pop(joiner)
            members[center].extend(moved)
            for phys in moved:
                root_of[phys] = center

    def tree(self, cid: int) -> RootedTree:
        """The current spanning tree of cluster ``cid``."""
        members = set(self._members[cid])
        parent = {p: self._parent[p] for p in members if p != cid}
        missing = members - set(parent) - {cid}
        if missing:
            raise ValidationError(f"members without parents in cluster {cid}: {missing}")
        return RootedTree(root=cid, parent=parent)

    def parent_edge(self, phys: int) -> tuple[int, int] | None:
        """``(parent phys, eid)`` for a non-root member, else ``None``."""
        return self._parent.get(phys)

    def parent_items(self):
        """All ``(child phys, (parent phys, eid))`` pairs (runtime-side;
        do not mutate).  Lets callers assemble flat parent arrays for
        vectorized depth sweeps without per-node method calls."""
        return self._parent.items()

    def tree_edge_ids(self, cid: int) -> frozenset[int]:
        return self.tree(cid).edge_ids()

    def heights(self) -> dict[int, int]:
        return {cid: self.tree(cid).height for cid in self._members}

    # ------------------------------------------------------------------
    def _reroot(self, old_root: int, new_root: int) -> None:
        """Flip parent pointers along the path ``new_root -> old_root``."""
        if new_root == old_root:
            return
        chain: list[tuple[int, int, int]] = []  # (child, parent, eid)
        current = new_root
        while current != old_root:
            parent, eid = self._parent[current]
            chain.append((current, parent, eid))
            current = parent
        for child, parent, eid in chain:
            self._parent[parent] = (child, eid)
        del self._parent[new_root]
