import itertools
import random

import pytest

from linsys import (
    GraphError,
    KuratowskiWitness,
    PlanarityVerdict,
    incidence_graph,
    induced_subsystem,
    is_planar,
    new_graph,
    new_linear_system,
    validate_verdict,
    zykov_planar,
)

from _oracles import brute_planar


def _complete(n):
    return new_graph(n, list(itertools.combinations(range(n), 2)))


def _k33():
    return new_graph(6, [(i, j + 3) for i in range(3) for j in range(3)])


def test_new_graph_validation():
    with pytest.raises(GraphError):
        new_graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        new_graph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        new_graph(2, [(0, 2)])
    with pytest.raises(GraphError):
        new_graph(3, [(0, 1)], (frozenset({0, 1}), frozenset({2})))


def test_incidence_graph_counts(pi3, c34):
    star = incidence_graph(new_linear_system(3, [[0, 1, 2]]))
    assert star.n_vertices == 4 and len(star.edges) == 3

    g = incidence_graph(c34)
    assert g.n_vertices == 16 and len(g.edges) == 24

    g = incidence_graph(pi3)
    assert g.n_vertices == 26 and len(g.edges) == 52
    left, right = g.bipartition
    assert all((u in left) != (v in left) for u, v in g.edges)


def test_classical_graphs():
    v = is_planar(_complete(4))
    assert v.planar and validate_verdict(_complete(4), v)

    k5 = _complete(5)
    v = is_planar(k5)
    assert not v.planar and v.witness.kind == "K5"
    assert validate_verdict(k5, v)

    k33 = _k33()
    v = is_planar(k33)
    assert not v.planar and v.witness.kind == "K33"
    assert validate_verdict(k33, v)


def test_c34_incidence_graph_not_planar(c34):
    v = zykov_planar(c34)
    assert not v.planar
    assert validate_verdict(incidence_graph(c34), v)


def test_grid_is_a_straight_line_system_with_non_planar_incidence_graph():
    # three horizontal and three vertical segments meeting in 9 points: a
    # straight-line system, so a non-planar verdict does not rule one out
    rows = [[3 * r, 3 * r + 1, 3 * r + 2] for r in range(3)]
    cols = [[c, c + 3, c + 6] for c in range(3)]
    grid = new_linear_system(9, rows + cols)
    v = zykov_planar(grid)
    assert not v.planar and v.witness.kind == "K33"
    assert validate_verdict(incidence_graph(grid), v)


def test_disjoint_lines_planar():
    s = new_linear_system(9, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
    v = zykov_planar(s)
    assert v.planar
    assert validate_verdict(incidence_graph(s), v)


def test_validate_rejects_tampered_witness(c34):
    g = incidence_graph(c34)
    v = zykov_planar(c34)
    w = v.witness
    dropped = KuratowskiWitness(w.kind, w.branch_vertices, w.paths[1:])
    assert not validate_verdict(g, PlanarityVerdict(False, witness=dropped))
    flipped = KuratowskiWitness(
        "K5" if w.kind == "K33" else "K33", w.branch_vertices, w.paths
    )
    assert not validate_verdict(g, PlanarityVerdict(False, witness=flipped))
    first = w.paths[0]
    broken = KuratowskiWitness(
        w.kind, w.branch_vertices, (first[:-1] + (first[-1] + 1,),) + w.paths[1:]
    )
    assert not validate_verdict(g, PlanarityVerdict(False, witness=broken))


def test_validate_rejects_tampered_embedding():
    g = _complete(4)
    v = is_planar(g)
    rot = dict(v.embedding)
    rot[0] = rot[0][:-1]  # drop a neighbor from one rotation
    assert not validate_verdict(g, PlanarityVerdict(True, embedding=rot))
    rot = dict(v.embedding)
    rot[0] = tuple(reversed(rot[0]))  # locally mirrored rotation breaks faces
    if len(rot[0]) >= 3:
        assert not validate_verdict(g, PlanarityVerdict(True, embedding=rot))


def test_edge_bound_consistency():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(3, 9)
        possible = list(itertools.combinations(range(n), 2))
        edges = rng.sample(possible, min(len(possible), rng.randint(0, 3 * n - 5)))
        g = new_graph(n, edges)
        verdict = is_planar(g)
        if len(edges) > 3 * n - 6:
            assert not verdict.planar
        assert validate_verdict(g, verdict)


def test_bipartite_edge_bound(pi3):
    g = incidence_graph(pi3)
    assert len(g.edges) > 2 * g.n_vertices - 4
    assert not is_planar(g).planar


def test_disconnected_and_isolated_vertices():
    g = new_graph(7, [(0, 1), (1, 2), (0, 2), (4, 5)])  # vertices 3, 6 isolated
    v = is_planar(g)
    assert v.planar and validate_verdict(g, v)


def test_oracle_agreement_small_graphs():
    # every graph on 5 vertices, then random graphs on 6..8 vertices
    pairs5 = list(itertools.combinations(range(5), 2))
    for bits in range(1 << len(pairs5)):
        edges = [pairs5[i] for i in range(len(pairs5)) if bits >> i & 1]
        g = new_graph(5, edges)
        assert is_planar(g).planar == brute_planar(g)
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(6, 8)
        possible = list(itertools.combinations(range(n), 2))
        edges = rng.sample(possible, rng.randint(0, len(possible)))
        g = new_graph(n, edges)
        verdict = is_planar(g)
        assert verdict.planar == brute_planar(g)
        assert validate_verdict(g, verdict)


def test_planar_subsystems_stay_planar():
    s = new_linear_system(7, [[0, 1, 2], [2, 3], [3, 4, 5], [5, 6, 0]])
    assert zykov_planar(s).planar
    for k in range(s.n_lines + 1):
        for subset in itertools.combinations(range(s.n_lines), k):
            sub, _ = induced_subsystem(s, subset)
            assert zykov_planar(sub).planar
