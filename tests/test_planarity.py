import itertools
import random

import networkx as nx
import pytest

from linsys import (
    Graph,
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
from linsys import planarity, verify
from linsys.planarity import _kuratowski_witness
from linsys.verify import Instance, random_instances

from _oracles import brute_planar, greedy_kuratowski_witness, reference_validate_verdict


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
    # ids and the vertex count must be ints, and a bool is no id
    bad = ((3, [(0.5, 1)]), (2, [(True, 0)]), (2, [(0, False)]), (2.5, []), (True, []))
    for n, edges in bad:
        with pytest.raises(GraphError):
            new_graph(n, edges)


def test_malformed_bipartition_is_a_graph_error():
    # not a pair of vertex sets: ints, three parts, one part, no iterable
    for bipartition in ((0, 1), (frozenset({0}), frozenset({1}), frozenset()),
                        (frozenset({0, 1}),), 5, ([[0]], [1])):
        with pytest.raises(GraphError, match="bipartition"):
            new_graph(2, [(0, 1)], bipartition)
    g = new_graph(2, [(0, 1)], ([0], {1}))
    assert g.bipartition == (frozenset({0}), frozenset({1}))


def _system_corpus():
    """The harness fixtures and the two random corpora of the planarity checks."""
    systems = [inst.system for inst in verify.fixture_instances()]
    for seed in (5, 7):
        systems += [inst.system for inst in random_instances(seed, 200)]
    return systems


def test_incidence_graph_equals_the_validated_graph(monkeypatch):
    """``incidence_graph`` builds, without ``new_graph``, the graph that
    ``new_graph`` returns for the same edges and bipartition."""
    systems = _system_corpus()
    validated = [new_graph(g.n_vertices, g.edges, g.bipartition)
                 for g in map(incidence_graph, systems)]

    def unexpected(*args):
        raise AssertionError("incidence_graph called new_graph")

    monkeypatch.setattr(planarity, "new_graph", unexpected)
    assert [incidence_graph(s) for s in systems] == validated


def test_equal_graphs_get_equal_verdicts():
    """The verdict, rotation system included, depends on the graph alone, not
    on the order in which its edge set was built."""
    graphs = [incidence_graph(s) for s in _system_corpus()] + list(_random_graphs())
    for g in graphs:
        built = new_graph(g.n_vertices, sorted(g.edges), g.bipartition)
        reversed_set = Graph(g.n_vertices, frozenset(reversed(sorted(g.edges))), g.bipartition)
        assert g == built == reversed_set
        assert is_planar(g) == is_planar(built) == is_planar(reversed_set)


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
    # a rotation at a vertex the graph does not have is rejected, not a crash
    tri = incidence_graph(new_linear_system(3, [[0, 1], [1, 2], [0, 2]]))
    v = is_planar(tri)
    assert v.planar and validate_verdict(tri, v)
    rot = dict(v.embedding)
    rot[99] = (0,)
    assert not validate_verdict(tri, PlanarityVerdict(True, embedding=rot))
    rot = dict(v.embedding)
    del rot[0]
    assert not validate_verdict(tri, PlanarityVerdict(True, embedding=rot))


def test_validate_rejects_malformed_certificates():
    # malformed entries are rejected before any comparison, not a crash
    tri = incidence_graph(new_linear_system(3, [[0, 1], [1, 2], [0, 2]]))
    good = is_planar(tri).embedding
    for bad in (None, [*good[0]], (*good[0][:-1], "x"), (*good[0][:-1], True), (None,)):
        rot = dict(good)
        rot[0] = bad
        assert not validate_verdict(tri, PlanarityVerdict(True, embedding=rot))
    assert not validate_verdict(tri, PlanarityVerdict(True, embedding=list(good.items())))
    for key, bad in ((0, False), (1, 1.0)):
        rot = {bad if v == key else v: r for v, r in good.items()}
        assert rot.keys() == good.keys()
        assert not validate_verdict(tri, PlanarityVerdict(True, embedding=rot))
    k5 = _complete(5)
    w = is_planar(k5).witness
    assert validate_verdict(k5, PlanarityVerdict(False, witness=w))
    for bad in (
        KuratowskiWitness("K5", ("a", "b", "c", "d", "e"), ()),
        KuratowskiWitness("K5", (None, 1, 2, 3, 4), w.paths),
        KuratowskiWitness("K5", (True, 1, 2, 3, 4), w.paths),
        KuratowskiWitness("K5", None, w.paths),
        KuratowskiWitness("K5", w.branch_vertices, None),
        KuratowskiWitness("K5", w.branch_vertices, (("a", 1),) + w.paths[1:]),
        KuratowskiWitness("K5", w.branch_vertices, (None,) + w.paths[1:]),
        KuratowskiWitness("K5", w.branch_vertices, ((0.0, 1),) + w.paths[1:]),
        "x",
        (w.kind, w.branch_vertices, w.paths),
    ):
        assert not validate_verdict(k5, PlanarityVerdict(False, witness=bad))
    # the verdict itself of the wrong type
    for bad in (None, "x", 3, (False, w), w):
        assert not validate_verdict(k5, bad)


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


def test_is_planar_decides_with_planar(monkeypatch, pi3, c34):
    # networkx runs as often for a non-planar graph as for planar(g) and
    # the witness search, and once, for the decision and the rotation
    # system together, on a planar one
    calls = []
    check = nx.check_planarity

    def counting(*args, **kwargs):
        calls.append(1)
        return check(*args, **kwargs)

    monkeypatch.setattr(planarity.nx, "check_planarity", counting)

    def count(f, g):
        before = len(calls)
        f(g)
        return len(calls) - before

    non_planar = [_complete(5), _k33(), new_graph(10, nx.petersen_graph().edges),
                  incidence_graph(pi3), incidence_graph(c34)]
    for g in non_planar:
        assert count(is_planar, g) == count(planar, g) + count(_kuratowski_witness, g)
    tree = new_graph(7, [(v, (v - 1) // 2) for v in range(1, 7)])
    grid = new_graph(16, [(v, v + 1) for v in range(16) if v % 4 < 3]
                     + [(v, v + 4) for v in range(12)])
    # the counts settle the tree and leave the grid to networkx
    assert (count(planar, tree), count(planar, grid)) == (0, 1)
    for g in (tree, grid):
        assert count(is_planar, g) == 1


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
    claim = next(c for c in verify._claims()
                 if c.claim_id == "planar-nu2-234-tau-strictly-below")
    assert not claim.applies(Instance("six-point", s))


def _tampered(rng, g, verdict):
    """The verdict and copies of it with one certificate tampered: rotations
    shuffled at random vertices, a path duplicated, a branch vertex replaced,
    or the kind flipped (also with a branch vertex added and a path dropped,
    which fits a K5's counts to a K3,3's)."""
    yield verdict
    if verdict.planar:
        for _ in range(3):
            rot = dict(verdict.embedding)
            for x in rng.sample(range(g.n_vertices), rng.randint(1, g.n_vertices)):
                rot[x] = tuple(rng.sample(rot[x], len(rot[x])))
            yield PlanarityVerdict(True, embedding=rot)
        return
    w = verdict.witness
    paths, branch = list(w.paths), list(w.branch_vertices)
    copied = paths[:]
    copied[rng.randrange(len(paths))] = rng.choice(paths)
    moved = branch[:]
    moved[rng.randrange(len(branch))] = rng.randrange(g.n_vertices)
    flipped = "K5" if w.kind == "K33" else "K33"
    for kind, bv, ps in (
        (w.kind, branch, copied),
        (w.kind, branch, paths + [rng.choice(paths)]),
        (w.kind, moved, paths),
        (flipped, branch, paths),
        (flipped, branch + [rng.randrange(g.n_vertices)], paths[:9]),
    ):
        yield PlanarityVerdict(False, witness=KuratowskiWitness(kind, tuple(bv), tuple(ps)))


def test_validate_verdict_matches_reference_on_tampered_certificates(
    pi2, pi3, c34, c_sys
):
    rng = random.Random(18)
    cases = []
    for _ in range(400):
        n = rng.randint(1, 9)
        possible = list(itertools.combinations(range(n), 2))
        g = new_graph(n, rng.sample(possible, rng.randint(0, len(possible))))
        cases += [(g, v) for v in _tampered(rng, g, is_planar(g))]
    systems = [pi2, pi3, c34, c_sys, _grid(), *(ns.system for ns in enumerate_c44()),
               new_linear_system(9, [[0, 1, 2], [2, 3], [3, 4, 5], [5, 6, 0], [7, 8]])]
    for s in systems:
        g = incidence_graph(s)
        verdict = is_planar(g)
        for _ in range(40):
            cases += [(g, v) for v in _tampered(rng, g, verdict)]
    # 9 single-edge paths between 6 branch vertices of K6: only a K3,3 pair
    # set passes, and the prism, also 3-regular, must fail
    k6 = _complete(6)
    prism = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    k33 = sorted(_k33().edges)
    for i in range(600):
        paths = (prism, k33, rng.sample(sorted(k6.edges), 9))[i % 3]
        branch = tuple(rng.sample(range(6), 6))
        cases.append((k6, PlanarityVerdict(False, witness=KuratowskiWitness(
            "K33", branch, tuple(p if rng.random() < 0.5 else p[::-1] for p in paths)))))
    assert len(cases) >= 4000
    outcomes = [validate_verdict(g, v) for g, v in cases]
    assert outcomes == [reference_validate_verdict(g, v) for g, v in cases]
    assert 0 < sum(outcomes) < len(outcomes)
