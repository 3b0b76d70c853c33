"""Exact transversal and 2-packing solvers with witness certificates.

Each main solver is one pruned decision search over bitmask state, shared
by the pass that finds the optimum and the pass that fixes the
lexicographically least witness; tau counts its budget up from the root's
own lower bound.  The ``brute_force_*`` twins enumerate subsets outright and
exist so tests can cross-check the optimized path on every instance that
fits their guards.
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
    _mask,
)

_ORACLE_MAX_POINTS = 20
_ORACLE_MAX_LINES = 20
_HYPERGRAPH_MAX_VERTICES = 13


@dataclass(frozen=True, slots=True)
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
    """True iff the chosen lines are distinct and no point lies on three."""
    idxs = tuple(line_indices)
    for l in idxs:
        _check_line(sys, l)
    if len(set(idxs)) != len(idxs):
        return False
    once = 0
    twice = 0
    for l in idxs:
        m = sys.masks[l]
        if m & twice:
            return False
        twice |= once & m
        once |= m
    return True


def transversal_number(sys: LinearSystem) -> Certificate:
    """Minimum transversal with the lexicographically smallest witness.

    Both passes ask one decision search, ``coverable(uncovered, budget,
    lo)``: can the bitmask ``uncovered`` of lines be hit with ``budget``
    points of id at least ``lo``?  A node branches over the points of the
    first uncovered line of least size, which ``scan`` finds.  It is cut when
    the budget is below either of two counts over the uncovered lines:
    ``scan``'s greedy set of pairwise disjoint ones (each needs its own
    point), and ``spread``, their number divided, rounded up, by the most of
    them any one point covers.  The second count is what prunes projective
    planes, where every two lines meet and the first is always 1.  tau is
    the least budget for which all lines are coverable, counted up from the
    larger count over all lines, below which the root cuts; the last failed
    call, if any, proves the optimum.  The witness pass then fixes the
    points one at a time, each the least id after which the rest of the
    budget still covers what is left.
    """
    m = sys.n_lines
    if m == 0:
        return Certificate("transversal", (), 0)
    masks = sys.masks
    lines = sys.lines
    line_sizes = [len(l) for l in lines]
    cover = [_mask(ls) for ls in sys.incidence]
    full = (1 << m) - 1

    def scan(uncovered: int) -> tuple[int, int]:
        taken = 0
        disjoint = 0
        pick, pick_size = -1, 1 << 30
        rest = uncovered
        while rest:
            b = rest & -rest
            i = b.bit_length() - 1
            rest ^= b
            if masks[i] & taken == 0:
                taken |= masks[i]
                disjoint += 1
            if line_sizes[i] < pick_size:
                pick, pick_size = i, line_sizes[i]
        return disjoint, pick

    def spread(uncovered: int) -> int:
        most = max((c & uncovered).bit_count() for c in cover)
        return -(-uncovered.bit_count() // most)

    def coverable(uncovered: int, budget: int, lo: int) -> bool:
        if uncovered == 0:
            return True
        if budget <= 0:
            return False
        disjoint, pick = scan(uncovered)
        if disjoint > budget or spread(uncovered) > budget:
            return False
        for p in lines[pick]:
            if p >= lo and coverable(uncovered & ~cover[p], budget - 1, lo):
                return True
        return False

    members: list[int] = []
    unc = full
    try:
        tau = max(scan(full)[0], spread(full))
        while not coverable(full, tau, 0):
            tau += 1
        for p in range(sys.n_points):
            if len(members) == tau:
                break
            if coverable(unc & ~cover[p], tau - len(members) - 1, p + 1):
                members.append(p)
                unc &= ~cover[p]
    except RecursionError:  # one level per chosen point
        raise TooLarge(_too_deep("transversal_number", m)) from None
    assert unc == 0 and len(members) == tau
    return Certificate("transversal", tuple(members), tau)


def two_packing_number(sys: LinearSystem) -> Certificate:
    """Maximum 2-packing with the lexicographically smallest witness.

    Both passes ask one decision search, ``fits(addable, need, once)``: can
    ``need`` more lines, in increasing index order, come from the bitmask
    ``addable`` of lines through no point already covered twice?  Taking a
    line drops the lines through each point it covers a second time.  A
    node is cut when fewer than ``need`` lines are addable, or by the
    Russian-doll bound (Östergård, "A fast algorithm for the maximum clique
    problem", Discrete Appl. Math. 120, 2002): ``c[j]``, the 2-packing
    number of lines ``j..m-1``, bounds every completion from a mask whose
    lowest line is ``j``, because a subfamily of a 2-packing is one too.
    ``c`` fills from ``j = m-1`` down: ``c[j] = c[j+1] + 1`` exactly when
    ``c[j+1]`` more lines fit after line ``j``, and the optimum is ``c[0]``.
    Lines are tried in increasing order and only subtrees without a
    solution are cut, so the first packing of size ``c[0]`` the search
    finds from all lines is the lexicographically least: that is the
    witness pass.
    """
    m = sys.n_lines
    if m == 0:
        return Certificate("two_packing", (), 0)
    masks = sys.masks
    uncover = [~_mask(ls) for ls in sys.incidence]
    c = [0] * m
    chosen: list[int] = []

    def fits(addable: int, need: int, once: int) -> bool:
        while addable.bit_count() >= need:
            b = addable & -addable
            j = b.bit_length() - 1
            if c[j] < need:
                return False
            addable ^= b
            if need == 1:
                chosen.append(j)
                return True
            rest = addable
            doubled = once & masks[j]
            while doubled:
                d = doubled & -doubled
                doubled ^= d
                rest &= uncover[d.bit_length() - 1]
            if fits(rest, need - 1, once | masks[j]):
                chosen.append(j)
                return True
        return False

    full = (1 << m) - 1
    nu2 = 0
    try:
        for i in range(m - 1, -1, -1):
            c[i] = nu2 + 1  # lines above i fit at most nu2, so this takes line i
            if fits(full & -1 << i, nu2 + 1, 0):
                nu2 += 1
            c[i] = nu2
        chosen.clear()
        fits(full, nu2, 0)
    except RecursionError:  # one level per chosen line
        raise TooLarge(_too_deep("two_packing_number", m)) from None
    assert len(chosen) == nu2
    return Certificate("two_packing", tuple(reversed(chosen)), nu2)


def _too_deep(solver: str, n_lines: int) -> str:
    return f"{solver}: the search on {n_lines} lines goes deeper than the recursion limit"


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
