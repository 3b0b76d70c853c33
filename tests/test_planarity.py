import itertools
import random

import networkx as nx
import pytest

from linsys import (
    GraphError,
    KuratowskiWitness,
    PlanarityVerdict,
    enumerate_c44,
    incidence_graph,
    induced_subsystem,
    is_planar,
    new_graph,
    new_linear_system,
    planar,
    projective_plane,
    transversal_number,
    two_packing_number,
    validate_verdict,
    zykov_planar,
)
from linsys import verify
from linsys.planarity import _kuratowski_witness
from linsys.verify import Instance, random_instances

from _oracles import brute_planar, greedy_kuratowski_witness


def _complete(n):
    return new_graph(n, list(itertools.combinations(range(n), 2)))


def _k33():
    return new_graph(6, [(i, j + 3) for i in range(3) for j in range(3)])


def _grid():
    # three horizontal and three vertical segments meeting in 9 points
    rows = [[3 * r, 3 * r + 1, 3 * r + 2] for r in range(3)]
    cols = [[c, c + 3, c + 6] for c in range(3)]
    return new_linear_system(9, rows + cols)


def _random_graphs():
    # random graphs on 6..8 vertices, dense and sparse alike
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(6, 8)
        possible = list(itertools.combinations(range(n), 2))
        yield new_graph(n, rng.sample(possible, rng.randint(0, len(possible))))


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
    # a straight-line system, so a non-planar verdict does not rule one out
    grid = _grid()
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
        assert planar(g) == is_planar(g).planar == brute_planar(g)
    for g in _random_graphs():
        verdict = is_planar(g)
        assert planar(g) == verdict.planar == brute_planar(g)
        assert validate_verdict(g, verdict)


def test_planar_subsystems_stay_planar():
    s = new_linear_system(7, [[0, 1, 2], [2, 3], [3, 4, 5], [5, 6, 0]])
    assert zykov_planar(s).planar
    for k in range(s.n_lines + 1):
        for subset in itertools.combinations(range(s.n_lines), k):
            sub, _ = induced_subsystem(s, subset)
            assert zykov_planar(sub).planar


def _assert_greedy_witnesses(graphs):
    for g in graphs:
        assert _kuratowski_witness(g) == greedy_kuratowski_witness(g)


def test_witnesses_match_greedy_oracle_on_named_systems(c34, pi3, pi5):
    systems = [c34, *(ns.system for ns in enumerate_c44()), _grid(), pi3, pi5,
               projective_plane(7).system]
    _assert_greedy_witnesses(incidence_graph(s) for s in systems)


def test_witnesses_match_greedy_oracle_on_random_systems():
    graphs = [incidence_graph(inst.system)
              for seed in (0, 1, 2, 3) for inst in random_instances(seed, 50)]
    non_planar = [g for g in graphs if not planar(g)]
    assert len(non_planar) >= 40
    _assert_greedy_witnesses(non_planar)


def test_witnesses_match_greedy_oracle_without_bipartition():
    # no bipartition, so the witness search bounds edges by 3V - 6
    k5 = _complete(5)
    subdivided = {(u, v) for u, v in k5.edges if (u, v) != (0, 1)} | {(0, 5), (1, 5)}
    graphs = [
        k5,
        _k33(),
        new_graph(6, subdivided),
        new_graph(10, nx.petersen_graph().edges),
        *(g for g in _random_graphs() if not planar(g)),
    ]
    assert all(g.bipartition is None for g in graphs)
    _assert_greedy_witnesses(graphs)


def test_six_point_straight_line_system_outside_the_planar_proxy():
    # a straight-line system with a non-planar incidence graph, so the
    # planar strict-bound claim skips it although nu2 = 4 < 5 lines
    s = new_linear_system(6, [[0, 1], [0, 2, 3], [0, 4, 5], [1, 2, 4], [1, 3, 5]])
    v = zykov_planar(s)
    assert not v.planar and v.witness.kind == "K33"
    assert validate_verdict(incidence_graph(s), v)
    assert transversal_number(s).value == 2
    assert two_packing_number(s).value == 4
    claim = next(c for c in verify._claims([])
                 if c.claim_id == "planar-nu2-234-tau-strictly-below")
    assert not claim.applies(Instance("six-point", s))
