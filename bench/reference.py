"""Answers the benchmark checks linsys against, computed by other routes.

Nothing here runs inside a timed region.  tau and nu2 come from an integer
program solved by scipy's HiGHS (or, for projective planes, from the known
values q + 1); planarity comes from networkx on an incidence graph built
here; isomorphism from networkx's VF2 matcher on incidence graphs.
"""

from __future__ import annotations

import math
import random

import networkx as nx

# nu2 of the order-q plane is q + 1 for odd q; pi:2 has nu2 = 4
PLANE_NU2 = {2: 4}


def plane_order(sys) -> int | None:
    """q when ``sys`` is a projective plane of order q.

    A linear system with q^2 + q + 1 points and lines, all lines of size
    q + 1, covers each point pair exactly once, so it is a plane.
    """
    q = math.isqrt(sys.n_points)  # n = q^2 + q + 1, so isqrt(n) = q
    if q >= 2 and sys.n_points == q * q + q + 1 == sys.n_lines and all(
        len(line) == q + 1 for line in sys.lines
    ):
        return q
    return None


def _incidence(sys):
    import numpy as np

    a = np.zeros((sys.n_lines, sys.n_points))
    for j, line in enumerate(sys.lines):
        a[j, list(line)] = 1
    return a


def _milp(c, a, lo, hi) -> int:
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    res = milp(
        c=np.asarray(c, dtype=float),
        constraints=LinearConstraint(a, lo, hi),
        integrality=np.ones(len(c)),
        bounds=Bounds(0, 1),
    )
    if res.status != 0:
        raise RuntimeError(f"reference integer program failed: {res.message}")
    return round(abs(res.fun))


def tau(sys) -> int:
    """Minimum number of points meeting every line."""
    q = plane_order(sys)
    if q is not None:
        return q + 1
    return _milp([1] * sys.n_points, _incidence(sys), 1, math.inf)


def nu2(sys) -> int:
    """Maximum number of lines with no point on three of them."""
    q = plane_order(sys)
    if q is not None:
        return PLANE_NU2.get(q, q + 1)
    return _milp([-1] * sys.n_lines, _incidence(sys).T, -math.inf, 2)


def incidence_nx(sys) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(("p", p) for p in range(sys.n_points))
    g.add_nodes_from(("l", j) for j in range(sys.n_lines))
    g.add_edges_from((("p", p), ("l", j)) for j, line in enumerate(sys.lines) for p in line)
    return g


def planar(sys) -> bool:
    return nx.check_planarity(incidence_nx(sys))[0]


def isomorphic(a, b) -> bool:
    """Point/line-preserving isomorphism of the incidence graphs; the systems
    must have no point of degree below 2, where linsys prunes."""
    same_kind = nx.algorithms.isomorphism.categorical_node_match("kind", None)
    ga, gb = incidence_nx(a), incidence_nx(b)
    for g in (ga, gb):
        for v in g:
            g.nodes[v]["kind"] = v[0]
            if v[0] == "p" and g.degree(v) < 2:
                raise ValueError("reference isomorphism needs minimum degree 2")
    return nx.is_isomorphic(ga, gb, node_match=same_kind)


def relabel(sys, rng: random.Random):
    """The same system with point ids permuted and lines reordered."""
    from linsys import new_linear_system

    perm = list(range(sys.n_points))
    rng.shuffle(perm)
    lines = [[perm[p] for p in line] for line in sys.lines]
    rng.shuffle(lines)
    return new_linear_system(sys.n_points, lines)


def claim_counts(systems, n_extremal: int) -> dict[str, int]:
    """How many instances each claim of ``linsys.verify`` must check on a
    corpus of ``systems`` (within the brute-force guard), recomputed from
    brute-force tau and nu2, degrees counted here and networkx planarity.
    ``n_extremal`` is the number of fixed extremal systems the planar-bound
    claim checks on top of the corpus."""
    from linsys import brute_force_transversal, brute_force_two_packing

    counts = dict.fromkeys(
        (
            "full-packing-iff-max-degree-2",
            "nu2-2-iff-tau-1",
            "nu2-3-forces-tau-2",
            "nu2-4-delta-ge-5-tau-le-3",
            "nu2-4-tau-le-4-extremal-classification",
            "planar-nu2-234-tau-strictly-below",
            "three-hypergraph-correspondence",
            "tau-nu2-sandwich",
        ),
        0,
    )
    counts["planar-nu2-234-tau-strictly-below"] = n_extremal
    for s in systems:
        t = brute_force_transversal(s).value
        n = brute_force_two_packing(s).value
        m = s.n_lines
        delta = max((sum(1 for line in s.lines if p in line) for p in range(s.n_points)), default=0)
        counts["full-packing-iff-max-degree-2"] += 1
        counts["nu2-2-iff-tau-1"] += m > 2 and (n == 2 or t == 1)
        counts["nu2-3-forces-tau-2"] += n == 3 and m > 3
        counts["nu2-4-delta-ge-5-tau-le-3"] += n == 4 and delta >= 5
        counts["nu2-4-tau-le-4-extremal-classification"] += n == 4 and m > 4
        counts["planar-nu2-234-tau-strictly-below"] += n in (2, 3, 4) and m > n and planar(s)
        counts["three-hypergraph-correspondence"] += 3 <= m <= 13
        counts["tau-nu2-sandwich"] += n >= 2 and m > n
    return counts
