"""Slow, definition-direct oracles used only to cross-check the main code.

Everything here enumerates outright (permutations, injections, subdivision
searches) and must stay independent of the algorithms it validates.
"""

from __future__ import annotations

import itertools

import networkx as nx

from linsys import LinearSystem, prune_low_degree
from linsys.planarity import Graph, KuratowskiWitness, _decompose_subdivision


def brute_isomorphic(a: LinearSystem, b: LinearSystem, prune: bool = True) -> bool:
    """Exhaustive bijection search, on the pruned systems by default
    (matching the public isomorphism relation); <= 8 points."""
    pa = prune_low_degree(a)[0] if prune else a
    pb = prune_low_degree(b)[0] if prune else b
    if pa.n_points != pb.n_points or pa.n_lines != pb.n_lines:
        return False
    target = {frozenset(l) for l in pb.lines}
    for perm in itertools.permutations(range(pb.n_points)):
        mapped = {frozenset(perm[p] for p in line) for line in pa.lines}
        if mapped == target:
            return True
    return False


def brute_embeds(a: LinearSystem, b: LinearSystem) -> bool:
    """Exhaustive injection search for a linear-subsystem embedding of the
    pruned ``a`` into ``b``; only sensible for tiny systems."""
    src, _ = prune_low_degree(a)
    if src.n_points > b.n_points:
        return False
    host_sets = [set(line) for line in b.lines]
    for image in itertools.permutations(range(b.n_points), src.n_points):
        imgset = set(image)
        ok = True
        for line in src.lines:
            want = {image[p] for p in line}
            if not any(h & imgset == want for h in host_sets):
                ok = False
                break
        if ok:
            return True
    return False


def _adjacency(g: Graph) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(g.n_vertices)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _paths_between(adj, start, goal, blocked):
    """All simple paths start..goal whose internal vertices avoid ``blocked``."""
    out = []

    def walk(path, seen):
        cur = path[-1]
        for nxt in sorted(adj[cur]):
            if nxt == goal:
                out.append(path + [goal])
            elif nxt not in seen and nxt not in blocked:
                walk(path + [nxt], seen | {nxt})

    walk([start], {start})
    return out


def _pack_paths(adj, pairs, blocked, used):
    if not pairs:
        return True
    (u, v), rest = pairs[0], pairs[1:]
    for path in _paths_between(adj, u, v, blocked | used):
        internals = set(path[1:-1])
        if internals & used:
            continue
        if _pack_paths(adj, rest, blocked, used | internals):
            return True
    return False


def brute_planar(g: Graph) -> bool:
    """Planarity by exhaustive Kuratowski-subdivision search (<= 8 vertices):
    the graph is planar iff no K5 or K3,3 subdivision exists."""
    adj = _adjacency(g)
    verts = range(g.n_vertices)
    for branch in itertools.combinations(verts, 5):
        pairs = list(itertools.combinations(branch, 2))
        blocked = set(branch)
        if _pack_paths(adj, pairs, blocked, set()):
            return False
    for six in itertools.combinations(verts, 6):
        for left in itertools.combinations(six, 3):
            if six[0] not in left:
                continue  # fix one side to kill the mirrored split
            right = tuple(v for v in six if v not in left)
            pairs = [(u, v) for u in left for v in right]
            if _pack_paths(adj, pairs, set(six), set()):
                return False
    return True


def greedy_kuratowski_witness(g: Graph) -> KuratowskiWitness:
    """Reference for ``_kuratowski_witness``: the one-edge-at-a-time greedy
    pass, one networkx planarity test per edge of ``sorted(g.edges)``, each
    edge deleted when the graph stays non-planar without it.  Only the
    deletion differs from the main code; the split into branch vertices and
    paths is shared."""
    work = set(g.edges)
    for e in sorted(g.edges):
        trial = work - {e}
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n_vertices))
        nxg.add_edges_from(trial)
        if not nx.check_planarity(nxg)[0]:
            work = trial
    return _decompose_subdivision(work)
