"""Minimal graph substrate for overlay networks.

The paper runs its randomized algorithms over overlay networks
(Section 2.4.1): complete graphs, random regular graphs, and hypercube-like
structures. This module provides the graph representation those overlays
share, built from scratch (no networkx in the library; networkx is used
only as a test oracle).

Two implementations matter:

* :class:`ExplicitGraph` stores adjacency lists — fine up to the
  degree-bounded overlays of the paper's sweeps;
* :class:`CompleteGraph` is implicit — a complete graph over 10,000 nodes
  (paper's Figure 3) must not materialise ~5*10^7 edges.

Both expose the same small interface (:class:`Graph`), which is all the
engines and the verifier rely on.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator, Sequence

from ..core.errors import ConfigError

__all__ = ["Graph", "ExplicitGraph", "CompleteGraph"]


class Graph:
    """Abstract undirected overlay over nodes ``0 .. n-1``.

    Node 0 is, by library convention, the server.
    """

    n: int

    def neighbors(self, v: int) -> Sequence[int]:
        """Neighbors of ``v`` as an indexable sequence (for sampling)."""
        raise NotImplementedError

    def has_edge(self, a: int, b: int) -> bool:
        """Whether ``{a, b}`` is an overlay edge."""
        raise NotImplementedError

    def degree(self, v: int) -> int:
        """Number of neighbors of ``v``."""
        return len(self.neighbors(v))

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as ordered pairs ``(a, b)`` with ``a < b``."""
        for a in range(self.n):
            for b in self.neighbors(a):
                if a < b:
                    yield (a, b)

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return sum(self.degree(v) for v in range(self.n)) // 2

    @property
    def average_degree(self) -> float:
        """Mean node degree."""
        return 2 * self.edge_count / self.n if self.n else 0.0

    @property
    def max_degree(self) -> int:
        """Largest node degree."""
        return max((self.degree(v) for v in range(self.n)), default=0)

    @property
    def min_degree(self) -> int:
        """Smallest node degree."""
        return min((self.degree(v) for v in range(self.n)), default=0)

    def _check_node(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ConfigError(f"node {v} outside 0..{self.n - 1}")

    # -- traversal utilities ------------------------------------------------

    def bfs_distances(self, source: int) -> list[int]:
        """Hop distance from ``source`` to every node (-1 if unreachable)."""
        self._check_node(source)
        dist = [-1] * self.n
        dist[source] = 0
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for w in self.neighbors(v):
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return dist

    def is_connected(self) -> bool:
        """Whether every node is reachable from node 0."""
        if self.n == 0:
            return True
        return all(d >= 0 for d in self.bfs_distances(0))

    def eccentricity(self, source: int) -> int:
        """Largest hop distance from ``source``; raises if disconnected."""
        dist = self.bfs_distances(source)
        if min(dist) < 0:
            raise ConfigError("eccentricity undefined on a disconnected graph")
        return max(dist)

    def diameter(self) -> int:
        """Largest hop distance between any two nodes (O(n * edges))."""
        return max(self.eccentricity(v) for v in range(self.n))

    def degree_histogram(self) -> dict[int, int]:
        """Mapping of degree value to the number of nodes with that degree."""
        hist: dict[int, int] = {}
        for v in range(self.n):
            d = self.degree(v)
            hist[d] = hist.get(d, 0) + 1
        return hist

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.n}, edges={self.edge_count})"


class ExplicitGraph(Graph):
    """Adjacency-list graph; simple (no self-loops, no parallel edges)."""

    __slots__ = ("n", "_adj", "_adj_sets")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 1:
            raise ConfigError(f"graph needs at least one node, got n={n}")
        self.n = n
        adj_sets: list[set[int]] = [set() for _ in range(n)]
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise ConfigError(f"edge ({a}, {b}) outside 0..{n - 1}")
            if a == b:
                raise ConfigError(f"self-loop at node {a}")
            adj_sets[a].add(b)
            adj_sets[b].add(a)
        self._adj_sets = adj_sets
        self._adj: list[tuple[int, ...]] = [tuple(sorted(s)) for s in adj_sets]

    def neighbors(self, v: int) -> Sequence[int]:
        self._check_node(v)
        return self._adj[v]

    def has_edge(self, a: int, b: int) -> bool:
        self._check_node(a)
        self._check_node(b)
        return b in self._adj_sets[a]

    def degree(self, v: int) -> int:
        self._check_node(v)
        return len(self._adj[v])

    def with_edge(self, a: int, b: int) -> "ExplicitGraph":
        """A copy of this graph with one extra edge (no-op if present)."""
        return ExplicitGraph(self.n, list(self.edges()) + [(a, b)])


class CompleteGraph(Graph):
    """The complete graph K_n, stored implicitly.

    ``neighbors(v)`` returns a lazily-computed tuple; engines that know
    they are on a complete graph should sample nodes directly instead
    (see :mod:`repro.randomized.sampling`), but the interface stays exact.
    """

    __slots__ = ("n", "_cached_neighbors")

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ConfigError(f"graph needs at least one node, got n={n}")
        self.n = n
        self._cached_neighbors: dict[int, tuple[int, ...]] = {}

    def neighbors(self, v: int) -> Sequence[int]:
        self._check_node(v)
        cached = self._cached_neighbors.get(v)
        if cached is None:
            cached = (*range(v), *range(v + 1, self.n))
            # Cache only a handful to avoid O(n^2) memory on big graphs.
            if len(self._cached_neighbors) < 64:
                self._cached_neighbors[v] = cached
        return cached

    def has_edge(self, a: int, b: int) -> bool:
        self._check_node(a)
        self._check_node(b)
        return a != b

    def degree(self, v: int) -> int:
        self._check_node(v)
        return self.n - 1

    @property
    def edge_count(self) -> int:
        return self.n * (self.n - 1) // 2
