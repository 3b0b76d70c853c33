"""Bipartite incidence graphs and certified planarity decisions.

Incidence-graph planarity is a proxy for straight-line representability,
not a necessary condition for it: the 3x3 grid (three horizontal and three
vertical segments) is a straight-line system with a non-planar incidence
graph.  Every verdict carries a checkable certificate: a rotation system
validated against Euler's formula when planar, or a K5/K3,3 subdivision
when not.  The certified decision delegates to networkx; the yes/no
answer and each test of the witness search settle the easy cases by
counting and delegate the rest.  Certificate validation is independent of
networkx.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import networkx as nx

from .core import LinearSystem


class GraphError(Exception):
    pass


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; build via :func:`new_graph`."""

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
    if n_vertices < 0:
        raise GraphError(f"negative vertex count {n_vertices}")
    norm: set[tuple[int, int]] = set()
    for u, v in edges:
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if not (0 <= u < n_vertices and 0 <= v < n_vertices):
            raise GraphError(f"edge ({u}, {v}) out of range")
        e = (u, v) if u < v else (v, u)
        if e in norm:
            raise GraphError(f"duplicate edge {e}")
        norm.add(e)
    if bipartition is not None:
        left, right = frozenset(bipartition[0]), frozenset(bipartition[1])
        if left & right or left | right != set(range(n_vertices)):
            raise GraphError("bipartition must split the vertex set")
        for u, v in norm:
            if (u in left) == (v in left):
                raise GraphError(f"edge ({u}, {v}) does not cross the bipartition")
        bipartition = (left, right)
    return Graph(n_vertices, frozenset(norm), bipartition)


def incidence_graph(sys: LinearSystem) -> Graph:
    """Bipartite point/line incidence graph: vertex i < n_points is point i,
    vertex n_points + j is line j."""
    n = sys.n_points
    edges = []
    for j, line in enumerate(sys.lines):
        for p in line:
            edges.append((p, n + j))
    return new_graph(
        n + sys.n_lines,
        edges,
        (frozenset(range(n)), frozenset(range(n, n + sys.n_lines))),
    )


def _decompose_subdivision(edges: set[tuple[int, int]]) -> KuratowskiWitness:
    """Split an edge-minimal non-planar graph into branch vertices and the
    internally disjoint paths joining them."""
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    for v in adj:
        adj[v].sort()
    branch = sorted(v for v, nbrs in adj.items() if len(nbrs) >= 3)
    paths = set()
    for b in branch:
        for first in adj[b]:
            path = [b, first]
            while path[-1] not in branch:
                nbrs = adj[path[-1]]
                nxt = nbrs[0] if nbrs[1] == path[-2] else nbrs[1]
                path.append(nxt)
            tup = tuple(path)
            rev = tuple(reversed(path))
            paths.add(min(tup, rev))
    paths = tuple(sorted(paths))
    if len(branch) == 5:
        kind = "K5"
    elif len(branch) == 6:
        kind = "K33"
    else:
        raise GraphError(f"unexpected branch vertex count {len(branch)}")
    return KuratowskiWitness(kind, tuple(branch), paths)


def _two_core(edges) -> dict[int, set[int]]:
    """Adjacency of the 2-core: vertices of degree below 2 are stripped until
    none is left."""
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
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


def _planar_edges(edges, bipartite: bool) -> bool:
    """Planarity of an edge set.  Counting on its 2-core decides the easy
    cases; networkx decides the rest."""
    core = _two_core(edges)
    if sum(len(nbrs) >= 3 for nbrs in core.values()) < 5:
        return True
    n_edges = sum(len(nbrs) for nbrs in core.values()) // 2
    if n_edges > (2 * len(core) - 4 if bipartite else 3 * len(core) - 6):
        return False
    g = nx.Graph()
    g.add_edges_from((u, v) for u, nbrs in core.items() for v in nbrs if u < v)
    return nx.check_planarity(g)[0]


def _kuratowski_witness(g: Graph) -> KuratowskiWitness:
    """Reduce a non-planar graph to an edge-minimal non-planar subgraph,
    which by Kuratowski's theorem is a K5 or K3,3 subdivision.

    The kept edges are those of the greedy pass over ``sorted(g.edges)``
    that deletes each edge whose deletion leaves the graph non-planar.  The
    pass is run in galloping blocks of 1, 2, 4, ... edges.  Adding edges
    keeps a graph non-planar, so when deleting a whole block leaves it
    non-planar, the greedy pass would delete every edge of the block one at
    a time.  When it leaves the graph planar, a binary search finds the
    first edge of the block that the greedy pass keeps; the edges before it
    go, and the blocks restart at size 1 after it.

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

    i, block = 0, 1
    while i < len(order):
        end = min(i + block, len(order))
        if not planar_without(i, end):
            work.difference_update(order[i:end])
            i, block = end, 2 * block
            continue
        # deleting order[i:lo] leaves work non-planar, order[i:hi] planar
        lo, hi = i, end
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if planar_without(i, mid):
                hi = mid
            else:
                lo = mid
        work.difference_update(order[i:lo])  # order[lo] stays
        i, block = lo + 1, 1
    return _decompose_subdivision(work)


def planar(g: Graph) -> bool:
    """Yes/no planarity with no certificate, for filters that keep no
    witness; decided by the same 2-core counts as the witness search."""
    return _planar_edges(g.edges, g.bipartition is not None)


def is_planar(g: Graph) -> PlanarityVerdict:
    """Decide planarity with a certificate either way: a rotation system
    (cyclic neighbor order per vertex) when planar, a Kuratowski subdivision
    when not."""
    # one networkx call gives both the answer and the rotation system
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n_vertices))
    nxg.add_edges_from(g.edges)
    ok, emb = nx.check_planarity(nxg)
    if ok:
        data = emb.get_data()
        rotation = {v: tuple(data.get(v, ())) for v in range(g.n_vertices)}
        return PlanarityVerdict(True, embedding=rotation)
    return PlanarityVerdict(False, witness=_kuratowski_witness(g))


def zykov_planar(sys: LinearSystem) -> PlanarityVerdict:
    """Planarity of the incidence graph.  A non-planar verdict does not rule
    out a straight-line representation: the 3x3 grid has one."""
    return is_planar(incidence_graph(sys))


def _components(n: int, edges) -> list[set[int]]:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    comps: dict[int, set[int]] = {}
    for v in range(n):
        comps.setdefault(find(v), set()).add(v)
    return list(comps.values())


def _validate_embedding_euler(g: Graph, rotation: dict[int, tuple[int, ...]]) -> bool:
    """Face-trace the rotation system and check Euler's formula per connected
    component; genus zero is exactly what V - E + F = 2 certifies."""
    adj: dict[int, set[int]] = {v: set() for v in range(g.n_vertices)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    for v in range(g.n_vertices):
        rot = rotation.get(v)
        if rot is None or set(rot) != adj[v] or len(rot) != len(adj[v]):
            return False
    succ: dict[tuple[int, int], tuple[int, int]] = {}
    for v, rot in rotation.items():
        d = len(rot)
        for i, u in enumerate(rot):
            # next dart of (u, v) in face traversal
            succ[(u, v)] = (v, rot[(i + 1) % d])
    comp_of: dict[int, int] = {}
    comps = _components(g.n_vertices, g.edges)
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    counted: set[tuple[int, int]] = set()
    face_count = [0] * len(comps)
    for dart in succ:
        if dart in counted:
            continue
        cur = dart
        while cur not in counted:
            counted.add(cur)
            cur = succ[cur]
        if cur != dart:
            return False  # darts must close into cycles
        face_count[comp_of[dart[0]]] += 1
    for ci, comp in enumerate(comps):
        e = sum(1 for u, v in g.edges if u in comp)
        if e == 0:
            continue  # isolated vertex, trivially planar
        if len(comp) - e + face_count[ci] != 2:
            return False
    return True


def _validate_witness(g: Graph, w: KuratowskiWitness) -> bool:
    if w.kind not in ("K5", "K33"):
        return False
    branch = list(w.branch_vertices)
    if len(set(branch)) != len(branch):
        return False
    if any(not (0 <= b < g.n_vertices) for b in branch):
        return False
    expected_paths = {"K5": 10, "K33": 9}[w.kind]
    if len(w.paths) != expected_paths:
        return False
    if len(branch) != {"K5": 5, "K33": 6}[w.kind]:
        return False
    branch_set = set(branch)
    internal_seen: set[int] = set()
    pairs: set[tuple[int, int]] = set()
    for path in w.paths:
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
    # K33: pair graph must be 3-regular bipartite on 3+3 vertices
    deg = {b: 0 for b in branch}
    for a, b in pairs:
        deg[a] += 1
        deg[b] += 1
    if any(d != 3 for d in deg.values()):
        return False
    b0 = branch[0]
    side_a = {b0} | {b for b in branch if (min(b0, b), max(b0, b)) not in pairs and b != b0}
    side_b = set(branch) - side_a
    if len(side_a) != 3 or len(side_b) != 3:
        return False
    for a, b in pairs:
        if (a in side_a) == (b in side_a):
            return False
    return True


def validate_verdict(g: Graph, v: PlanarityVerdict) -> bool:
    """Independently check a verdict's certificate: Euler-consistent rotation
    system for planar, genuine Kuratowski subdivision for non-planar."""
    if v.planar:
        return v.embedding is not None and _validate_embedding_euler(g, v.embedding)
    return v.witness is not None and _validate_witness(g, v.witness)
