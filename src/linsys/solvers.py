"""Exact transversal and 2-packing solvers with witness certificates.

The main solvers are branch-and-bound searches over bitmask state; the
``brute_force_*`` twins enumerate subsets outright and exist so tests can
cross-check the optimized path on every instance that fits their guards.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (
    LinearSystem,
    ThreeHypergraph,
    TooLarge,
    _check_line,
    _check_point,
    _incidence,
    _mask,
)

_ORACLE_MAX_POINTS = 20
_ORACLE_MAX_LINES = 20
_HYPERGRAPH_MAX_VERTICES = 13


@dataclass(frozen=True)
class Certificate:
    """A witness optimum: point ids for a transversal, line indices for a
    2-packing; ``value`` always equals ``len(members)``."""

    kind: str
    members: tuple[int, ...]
    value: int


def is_transversal(sys: LinearSystem, points: set[int] | frozenset[int] | tuple[int, ...]) -> bool:
    """True iff every line contains at least one of the given points."""
    pts = tuple(points)
    for p in pts:
        _check_point(sys, p)
    pmask = _mask(pts)
    return all(m & pmask for m in sys.masks)


def is_two_packing(sys: LinearSystem, line_indices) -> bool:
    """True iff no point lies on three of the chosen lines."""
    idxs = tuple(line_indices)
    for l in idxs:
        _check_line(sys, l)
    once = 0
    twice = 0
    for l in set(idxs):
        m = sys.masks[l]
        if m & twice:
            return False
        twice |= once & m
        once |= m
    return True


def transversal_number(sys: LinearSystem) -> Certificate:
    """Minimum transversal with the lexicographically smallest witness.

    Branch and bound: branch on an uncovered line of minimum size over its
    points; the upper bound comes from a greedy max-coverage start.  The
    admissible lower bound on the points still needed is the larger of two
    counts over the uncovered lines: a greedy set of pairwise disjoint ones
    (each needs its own point), and their number divided, rounded up, by the
    most of them any one point covers.  The second count is what prunes
    projective planes, where every two lines meet and the first is always 1.
    A second pass, pruned by the same bound, fixes the witness to the
    lexicographically least minimum transversal.
    """
    m = sys.n_lines
    if m == 0:
        return Certificate("transversal", (), 0)
    cover = [_mask(ls) for ls in _incidence(sys)]
    full = (1 << m) - 1
    line_sizes = [len(l) for l in sys.lines]

    # greedy upper bound
    unc = full
    ub = 0
    while unc:
        best_p, best_c = 0, -1
        for p in range(sys.n_points):
            c = (cover[p] & unc).bit_count()
            if c > best_c:
                best_p, best_c = p, c
        unc &= ~cover[best_p]
        ub += 1

    def disjoint_lb(uncovered: int) -> int:
        taken = 0
        cnt = 0
        rest = uncovered
        while rest:
            b = rest & -rest
            i = b.bit_length() - 1
            rest ^= b
            if sys.masks[i] & taken == 0:
                taken |= sys.masks[i]
                cnt += 1
        return cnt

    def lower_bound(uncovered: int) -> int:
        most = max((c & uncovered).bit_count() for c in cover)
        return max(disjoint_lb(uncovered), -(-uncovered.bit_count() // most))

    def pick_line(uncovered: int) -> int:
        best_i, best_s = -1, 1 << 30
        rest = uncovered
        while rest:
            b = rest & -rest
            i = b.bit_length() - 1
            rest ^= b
            if line_sizes[i] < best_s:
                best_i, best_s = i, line_sizes[i]
        return best_i

    best = ub

    def dfs(uncovered: int, depth: int) -> None:
        nonlocal best
        if uncovered == 0:
            if depth < best:
                best = depth
            return
        if depth + lower_bound(uncovered) >= best:
            return
        i = pick_line(uncovered)
        for p in sys.lines[i]:
            dfs(uncovered & ~cover[p], depth + 1)

    dfs(full, 0)
    tau = best

    def coverable(uncovered: int, budget: int, lo: int) -> bool:
        """Can the uncovered lines be hit with ``budget`` points of id >= lo?"""
        if uncovered == 0:
            return True
        if budget <= 0 or lower_bound(uncovered) > budget:
            return False
        i = pick_line(uncovered)
        for p in sys.lines[i]:
            if p >= lo and coverable(uncovered & ~cover[p], budget - 1, lo):
                return True
        return False

    members: list[int] = []
    unc = full
    for p in range(sys.n_points):
        if len(members) == tau:
            break
        if coverable(unc & ~cover[p], tau - len(members) - 1, p + 1):
            members.append(p)
            unc &= ~cover[p]
    assert unc == 0 and len(members) == tau
    return Certificate("transversal", tuple(members), tau)


def two_packing_number(sys: LinearSystem) -> Certificate:
    """Maximum 2-packing with the lexicographically smallest witness.

    Depth-first include/exclude over line indices, keeping per-point
    multiplicity <= 2 via once/twice bitmasks and pruning on the count of
    lines that can still be added.
    """
    m = sys.n_lines
    if m == 0:
        return Certificate("two_packing", (), 0)
    masks = sys.masks

    # greedy start
    once = twice = 0
    greedy = 0
    for i in range(m):
        if masks[i] & twice == 0:
            twice |= once & masks[i]
            once |= masks[i]
            greedy += 1
    best = greedy

    def dfs(i: int, cnt: int, once: int, twice: int) -> None:
        nonlocal best
        avail = 0
        for j in range(i, m):
            if masks[j] & twice == 0:
                avail += 1
        if cnt + avail <= best:
            return
        while i < m and masks[i] & twice:
            i += 1
        if i == m:
            if cnt > best:
                best = cnt
            return
        lm = masks[i]
        dfs(i + 1, cnt + 1, once | lm, twice | (once & lm))
        dfs(i + 1, cnt, once, twice)

    dfs(0, 0, 0, 0)
    nu2 = best

    def extend(i: int, need: int, once: int, twice: int) -> bool:
        if need == 0:
            return True
        if m - i < need:
            return False
        for j in range(i, m - need + 1):
            lm = masks[j]
            if lm & twice == 0 and extend(j + 1, need - 1, once | lm, twice | (once & lm)):
                return True
        return False

    members: list[int] = []
    once = twice = 0
    for l in range(m):
        if len(members) == nu2:
            break
        lm = masks[l]
        if lm & twice:
            continue
        if extend(l + 1, nu2 - len(members) - 1, once | lm, twice | (once & lm)):
            members.append(l)
            twice |= once & lm
            once |= lm
    assert len(members) == nu2
    return Certificate("two_packing", tuple(members), nu2)


def _check_oracle_size(sys: LinearSystem) -> None:
    if sys.n_points > _ORACLE_MAX_POINTS or sys.n_lines > _ORACLE_MAX_LINES:
        raise TooLarge(
            f"brute-force oracle limited to {_ORACLE_MAX_POINTS} points / "
            f"{_ORACLE_MAX_LINES} lines, got {sys.n_points}/{sys.n_lines}"
        )


def brute_force_transversal(sys: LinearSystem) -> Certificate:
    """Exhaustive minimum transversal by increasing subset size; test oracle."""
    _check_oracle_size(sys)
    if sys.n_lines == 0:
        return Certificate("transversal", (), 0)
    for k in range(sys.n_points + 1):
        for combo in itertools.combinations(range(sys.n_points), k):
            if is_transversal(sys, combo):
                return Certificate("transversal", combo, k)
    raise AssertionError("nonempty lines always admit a transversal")


def brute_force_two_packing(sys: LinearSystem) -> Certificate:
    """Exhaustive maximum 2-packing by decreasing subset size; test oracle."""
    _check_oracle_size(sys)
    for k in range(sys.n_lines, -1, -1):
        for combo in itertools.combinations(range(sys.n_lines), k):
            if is_two_packing(sys, combo):
                return Certificate("two_packing", combo, k)
    raise AssertionError("the empty set is always a 2-packing")


def clique_number_3h(h: ThreeHypergraph) -> int:
    """Largest vertex set all of whose triples are hyperedges.

    Equals the 2-packing number of the originating system whenever that
    system has at least 3 lines.
    """
    m = h.n_vertices
    edges = h.edges
    best = min(m, 2)

    def extend(chosen: list[int], start: int) -> None:
        nonlocal best
        if len(chosen) > best:
            best = len(chosen)
        for v in range(start, m):
            if len(chosen) + (m - v) <= best:
                break
            ok = True
            for a, b in itertools.combinations(chosen, 2):
                if (a, b, v) not in edges:
                    ok = False
                    break
            if ok:
                chosen.append(v)
                extend(chosen, v + 1)
                chosen.pop()

    extend([], 0)
    return best


def chromatic_number_3h(h: ThreeHypergraph) -> int:
    """Minimum partition of the vertices into intersecting families: no class
    may contain a hyperedge or a disjoint pair.

    Small-instance cross-check only.  Such a class is triple-wise and
    pairwise intersecting, hence has a common point in a linear system, so
    the result matches the transversal number.  (Forbidding hyperedges alone
    would let a 2-element class hold two disjoint lines and undercut the
    correspondence.)
    """
    m = h.n_vertices
    if m > _HYPERGRAPH_MAX_VERTICES:
        raise TooLarge(
            f"chromatic cross-check limited to {_HYPERGRAPH_MAX_VERTICES} vertices, got {m}"
        )
    if not h.edges and not h.disjoint_pairs:
        return 1 if m else 0
    # for vertex v, constraints whose other vertices all precede v
    trailing_edges: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for a, b, c in h.edges:
        trailing_edges[c].append((a, b))
    trailing_pairs: list[list[int]] = [[] for _ in range(m)]
    for a, b in h.disjoint_pairs:
        trailing_pairs[b].append(a)

    def colorable(k: int) -> bool:
        colors = [-1] * m

        def place(v: int, used: int) -> bool:
            if v == m:
                return True
            limit = min(k, used + 1)
            for c in range(limit):
                ok = all(colors[a] != c for a in trailing_pairs[v])
                if ok:
                    for a, b in trailing_edges[v]:
                        if colors[a] == c and colors[b] == c:
                            ok = False
                            break
                if ok:
                    colors[v] = c
                    if place(v + 1, max(used, c + 1)):
                        return True
                    colors[v] = -1
            return False

        return place(0, 0)

    k = 1
    while not colorable(k):
        k += 1
    return k
