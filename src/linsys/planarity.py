"""Bipartite incidence graphs and certified planarity decisions.

Incidence-graph planarity is a proxy for straight-line representability,
not a necessary condition for it: the 3x3 grid (three horizontal and three
vertical segments) is a straight-line system with a non-planar incidence
graph.  Every verdict carries a checkable certificate: a rotation system
validated against Euler's formula when planar, or a K5/K3,3 subdivision
when not.  Every decision, certified or not, and each test of the
witness search settle the easy cases by counting and delegate the rest to
networkx, which also gives a planar graph its rotation system.
Certificate validation is independent of networkx.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import Optional

import networkx as nx

from .core import LinearSystem, _is_int


class GraphError(Exception):
    pass


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; :func:`new_graph` checks one from outside."""

    n_vertices: int
    edges: frozenset[tuple[int, int]]
    bipartition: Optional[tuple[frozenset[int], frozenset[int]]] = None


@dataclass(frozen=True)
class KuratowskiWitness:
    """A subdivision of K5 or K3,3: branch vertices plus internally disjoint
    paths (each path listed as its full vertex sequence)."""

    kind: str  # "K5" or "K33"
    branch_vertices: tuple[int, ...]
    paths: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class PlanarityVerdict:
    planar: bool
    embedding: Optional[dict[int, tuple[int, ...]]] = None
    witness: Optional[KuratowskiWitness] = None


def new_graph(
    n_vertices: int,
    edges,
    bipartition: Optional[tuple[frozenset[int], frozenset[int]]] = None,
) -> Graph:
    """Validate a simple graph: no loops, no repeated edges, and when a
    bipartition is given every edge must cross it."""
    if not _is_int(n_vertices) or n_vertices < 0:
        raise GraphError(f"vertex count must be a nonnegative integer, got {n_vertices!r}")
    norm: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (_is_int(u) and _is_int(v) and 0 <= u < n_vertices and 0 <= v < n_vertices):
            raise GraphError(f"edge ({u!r}, {v!r}) needs int ids in [0, {n_vertices})")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in norm:
            raise GraphError(f"duplicate edge {e}")
        norm.add(e)
    if bipartition is not None:
        try:
            left, right = map(frozenset, bipartition)
        except (TypeError, ValueError):
            raise GraphError("bipartition must be two sets of vertex ids") from None
        if left & right or left | right != set(range(n_vertices)):
            raise GraphError("bipartition must split the vertex set")
        for u, v in norm:
            if (u in left) == (v in left):
                raise GraphError(f"edge ({u}, {v}) does not cross the bipartition")
        bipartition = (left, right)
    return Graph(n_vertices, frozenset(norm), bipartition)


def incidence_graph(sys: LinearSystem) -> Graph:
    """Bipartite point/line incidence graph: vertex i < n_points is point i,
    vertex n_points + j is line j.  Valid by construction, so not checked."""
    n, m = sys.n_points, sys.n_lines
    edges = frozenset((p, n + j) for j, line in enumerate(sys.lines) for p in line)
    return Graph(n + m, edges, (frozenset(range(n)), frozenset(range(n, n + m))))


def _adjacency(edges, vertices=()) -> dict[int, set[int]]:
    """Neighbour sets of the endpoints of ``edges``, plus each of
    ``vertices`` (isolated ones get an empty set)."""
    adj: dict[int, set[int]] = {v: set() for v in vertices}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def _decompose_subdivision(edges: set[tuple[int, int]]) -> KuratowskiWitness:
    """Split an edge-minimal non-planar graph into branch vertices and the
    internally disjoint paths joining them."""
    adj = _adjacency(edges)
    branch = sorted(v for v, nbrs in adj.items() if len(nbrs) >= 3)
    paths = set()
    for b in branch:
        for first in adj[b]:
            path = [b, first]
            while path[-1] not in branch:
                # an inner vertex has degree 2: step to the neighbour not just left
                (nxt,) = adj[path[-1]] - {path[-2]}
                path.append(nxt)
            tup = tuple(path)
            rev = tuple(reversed(path))
            paths.add(min(tup, rev))
    kind = {5: "K5", 6: "K33"}.get(len(branch))
    if kind is None:
        raise GraphError(f"unexpected branch vertex count {len(branch)}")
    return KuratowskiWitness(kind, tuple(branch), tuple(sorted(paths)))


def _two_core(edges) -> dict[int, set[int]]:
    """Adjacency of the 2-core: vertices of degree below 2 are stripped until
    none is left."""
    adj = _adjacency(edges)
    # a vertex is stacked once: at the start, or when its degree drops to 1
    stack = [v for v, nbrs in adj.items() if len(nbrs) < 2]
    while stack:
        v = stack.pop()
        for u in adj.pop(v):
            nbrs = adj[u]
            nbrs.discard(v)
            if len(nbrs) == 1:
                stack.append(u)
    return adj


def _counted(core: dict[int, set[int]], bipartite: bool) -> Optional[bool]:
    """Planarity of a 2-core where counting decides it, else None."""
    if sum(len(nbrs) >= 3 for nbrs in core.values()) < 5:
        return True
    n_edges = sum(len(nbrs) for nbrs in core.values()) // 2
    if n_edges > (2 * len(core) - 4 if bipartite else 3 * len(core) - 6):
        return False
    return None


def _planar_edges(edges, bipartite: bool) -> bool:
    """Planarity of an edge set.  Counting on its 2-core decides the easy
    cases; networkx decides the rest."""
    core = _two_core(edges)
    verdict = _counted(core, bipartite)
    if verdict is None:
        g = nx.Graph()
        g.add_edges_from((u, v) for u, nbrs in core.items() for v in nbrs if u < v)
        verdict = nx.check_planarity(g)[0]
    return verdict


def _kuratowski_witness(g: Graph) -> KuratowskiWitness:
    """Reduce a non-planar graph to an edge-minimal non-planar subgraph,
    which by Kuratowski's theorem is a K5 or K3,3 subdivision.

    The kept edges are those of the greedy pass over ``sorted(g.edges)``
    that deletes each edge whose deletion leaves the graph non-planar.
    Deleting more edges can only make a graph planar, so deleting the edges
    after a kept one, up to and including some edge, leaves the graph
    non-planar before the next edge the greedy pass keeps and planar from
    it on; a binary search finds that edge, and the edges before it go.

    Each test first strips the edge set to its 2-core, which keeps every
    K5 or K3,3 subdivision, since those have minimum degree 2.  Such a
    subdivision has at least 5 branch vertices of degree at least 3, so a
    2-core with fewer is planar.  A simple planar graph on V >= 3 vertices
    has at most 3V - 6 edges, and at most 2V - 4 when it has no triangle,
    as a subgraph of a bipartite graph has none; more edges than that is
    non-planar.  Only the tests these counts leave open reach networkx.
    """
    bipartite = g.bipartition is not None
    order = sorted(g.edges)
    work = set(g.edges)

    def planar_without(lo: int, hi: int) -> bool:
        return _planar_edges(work.difference(order[lo:hi]), bipartite)

    i = 0
    while i < len(order):
        # order[j] is the next edge the greedy pass keeps; j = len(order) if none
        j = bisect.bisect_left(range(len(order)), True, i, key=lambda k: planar_without(i, k + 1))
        work.difference_update(order[i:j])
        i = j + 1
    return _decompose_subdivision(work)


def planar(g: Graph) -> bool:
    """Yes/no planarity with no certificate, for filters that keep no
    witness; decided by the same 2-core counts as the witness search."""
    return _planar_edges(g.edges, g.bipartition is not None)


def is_planar(g: Graph) -> PlanarityVerdict:
    """Decide planarity with a certificate either way: a rotation system
    (cyclic neighbor order per vertex) when planar, a Kuratowski subdivision
    when not.  The 2-core counts of :func:`planar` settle a graph with too
    many edges as non-planar; one networkx call on the whole graph decides
    any other and gives a planar one its rotation system.  It gets the
    edges in sorted order, so equal graphs get the same rotation system."""
    if _counted(_two_core(g.edges), g.bipartition is not None) is not False:
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n_vertices))
        nxg.add_edges_from(sorted(g.edges))
        is_planar_graph, embedding = nx.check_planarity(nxg)
        if is_planar_graph:
            data = embedding.get_data()
            rotation = {v: tuple(data.get(v, ())) for v in range(g.n_vertices)}
            return PlanarityVerdict(True, embedding=rotation)
    return PlanarityVerdict(False, witness=_kuratowski_witness(g))


def zykov_planar(sys: LinearSystem) -> PlanarityVerdict:
    """Planarity of the incidence graph.  A non-planar verdict does not rule
    out a straight-line representation: the 3x3 grid has one."""
    return is_planar(incidence_graph(sys))


def _validate_embedding_euler(g: Graph, rotation: dict[int, tuple[int, ...]]) -> bool:
    """Face-trace the rotation system and check Euler's formula summed over
    the connected components that have an edge."""
    adj = _adjacency(g.edges, range(g.n_vertices))
    if not isinstance(rotation, dict) or rotation.keys() != adj.keys():
        return False
    succ: dict[tuple[int, int], tuple[int, int]] = {}
    for v, rot in rotation.items():
        # False == 0 and 1.0 == 1 pass the key comparison, but neither is an id
        if not (_is_int(v) and isinstance(rot, tuple) and all(map(_is_int, rot))):
            return False
        if set(rot) != adj[v] or len(rot) != len(adj[v]):
            return False
        d = len(rot)
        for i, u in enumerate(rot):
            # next dart of (u, v) in face traversal
            succ[(u, v)] = (v, rot[(i + 1) % d])
    counted: set[tuple[int, int]] = set()
    faces = 0
    for dart in succ:
        if dart in counted:
            continue
        cur = dart
        while cur not in counted:
            counted.add(cur)
            cur = succ[cur]
        if cur != dart:
            return False  # darts must close into cycles
        faces += 1
    seen: set[int] = set()
    n_comps = 0
    for root in adj:
        if root in seen or not adj[root]:
            continue  # an isolated vertex has no darts and is trivially planar
        n_comps += 1
        seen.add(root)
        stack = [root]
        while stack:
            for u in adj[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
    # each component has V - E + F = 2 - 2g with genus g >= 0 (Heffter-Edmonds),
    # so the sum reaches 2C only when every component has genus zero
    return len(seen) - len(g.edges) + faces == 2 * n_comps


def _validate_witness(g: Graph, w: KuratowskiWitness) -> bool:
    if w.kind not in ("K5", "K33"):
        return False
    if not isinstance(w.branch_vertices, tuple) or not isinstance(w.paths, tuple):
        return False
    branch = list(w.branch_vertices)
    if not all(map(_is_int, branch)) or len(set(branch)) != len(branch):
        return False
    if any(not (0 <= b < g.n_vertices) for b in branch):
        return False
    if (len(branch), len(w.paths)) != {"K5": (5, 10), "K33": (6, 9)}[w.kind]:
        return False
    branch_set = set(branch)
    internal_seen: set[int] = set()
    pairs: set[tuple[int, int]] = set()
    for path in w.paths:
        if not (isinstance(path, tuple) and all(map(_is_int, path))):
            return False
        if len(path) < 2 or len(set(path)) != len(path):
            return False
        a, b = path[0], path[-1]
        if a not in branch_set or b not in branch_set:
            return False
        for u, v in zip(path, path[1:]):
            e = (u, v) if u < v else (v, u)
            if e not in g.edges:
                return False
        for v in path[1:-1]:
            if v in branch_set or v in internal_seen:
                return False
            internal_seen.add(v)
        pair = (a, b) if a < b else (b, a)
        if pair in pairs:
            return False
        pairs.add(pair)
    if w.kind == "K5":
        return pairs == set(itertools.combinations(sorted(branch), 2))
    # K33: the first branch vertex and those not paired with it form one
    # side, and the 9 distinct pairs must join it to the other side
    b0 = branch[0]
    side = {b0} | {b for b in branch if (min(b0, b), max(b0, b)) not in pairs and b != b0}
    return len(side) == 3 and pairs == {
        (min(a, b), max(a, b)) for a in side for b in branch_set - side
    }


def validate_verdict(g: Graph, v: PlanarityVerdict) -> bool:
    """Independently check a verdict's certificate: Euler-consistent rotation
    system for planar, genuine Kuratowski subdivision for non-planar."""
    if not isinstance(v, PlanarityVerdict):
        return False
    if v.planar:
        return v.embedding is not None and _validate_embedding_euler(g, v.embedding)
    return isinstance(v.witness, KuratowskiWitness) and _validate_witness(g, v.witness)
