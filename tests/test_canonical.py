import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from linsys import (
    CanonicalForm,
    Embedding,
    LinearSystem,
    canonical_form,
    canonical_relabel,
    c34_from_pi3,
    embeds_as_subsystem,
    enumerate_c44,
    induced_subsystem,
    is_isomorphic,
    new_linear_system,
    projective_plane,
    prune_low_degree,
    random_linear_system,
    validate_embedding,
)
from linsys import constructions, core
from linsys.constructions import GenerationExhausted, find_triangles
from linsys.core import _canonical_key, _canonical_search
from linsys.verify import exhaustive_small, fixture_instances, random_instances

from _oracles import (
    _plain_refine,
    automorphism_closure,
    backtrack_embedding,
    brute_automorphisms,
    brute_embeds,
    brute_isomorphic,
    plain_canonical_search,
)


def _shuffled(sys, rng):
    perm = list(range(sys.n_points))
    rng.shuffle(perm)
    lines = [tuple(perm[p] for p in line) for line in sys.lines]
    rng.shuffle(lines)
    return new_linear_system(sys.n_points, lines)


@pytest.mark.parametrize("fixture", ["pi2", "pi3", "c34", "c_sys"])
def test_canonical_form_invariant_under_100_shuffles(fixture, request):
    sys = request.getfixturevalue(fixture)
    base = canonical_form(sys)
    rng = random.Random(99)
    for _ in range(100):
        assert canonical_form(_shuffled(sys, rng)) == base


def test_canonical_form_of_pi5_invariant_under_shuffles(pi5):
    # the search keeps 6 to 8 automorphisms and refines 70 to 243 times on
    # these ten shuffles
    base = canonical_form(pi5)
    assert base.pruned_sizes == (31, 31)
    rng = random.Random(99)
    for _ in range(10):
        assert canonical_form(_shuffled(pi5, rng)) == base


# SHA-256 of canonical_form(pi:7).label as plain_canonical_search computes
# it; that takes about a minute, so the digest is stored
PI7_LABEL_SHA256 = "3df368ef7d9040961c91ce81b2d64f2e4e726960f9d0e02c437a43fc647c8f0e"


def test_canonical_form_of_pi7_is_unchanged_and_invariant_under_shuffles():
    pi7 = projective_plane(7).system
    base = canonical_form(pi7)
    assert base.pruned_sizes == (57, 57)
    assert hashlib.sha256(base.label).hexdigest() == PI7_LABEL_SHA256
    rng = random.Random(99)
    for _ in range(2):
        assert canonical_form(_shuffled(pi7, rng)) == base


def test_canonical_form_distinguishes_planes(pi2, pi3):
    a, b = canonical_form(pi2), canonical_form(pi3)
    assert a.label != b.label
    assert a.pruned_sizes == (7, 7)
    assert b.pruned_sizes == (13, 13)


def test_canonical_form_matches_derived_c34(c34, pi3):
    l = next(i for i, line in enumerate(pi3.lines) if 0 not in line)
    ns = c34_from_pi3(0, l)
    assert canonical_form(ns.system) == canonical_form(c34)


def test_is_isomorphic_named(pi3, c34, c_sys):
    rng = random.Random(5)
    assert is_isomorphic(pi3, _shuffled(pi3, rng))
    assert not is_isomorphic(c34, c_sys)  # 8 lines vs 10 lines


def test_isomorphism_ignores_degree_one_decorations():
    bare = new_linear_system(3, [[0, 1], [0, 2], [1, 2]])
    decorated = new_linear_system(5, [[0, 1, 3], [0, 2, 4], [1, 2]])
    assert is_isomorphic(bare, decorated)


def test_empty_pruned_systems_take_the_general_path():
    # no point is left to individualize: the search's one leaf is the empty
    # labeling, with no automorphism
    empty = LinearSystem(0, ())
    assert _canonical_search(empty) == ((0, ()), (), [])
    two_lines = new_linear_system(6, [[0, 1, 2], [3, 4, 5]])
    assert canonical_form(two_lines) == CanonicalForm(b"0;", (0, 0))
    assert canonical_relabel(empty) == empty
    # both prune to nothing, so their (empty) searches agree
    assert is_isomorphic(two_lines, new_linear_system(2, [[0, 1]]))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), seed2=st.integers(0, 10_000))
def test_is_isomorphic_agrees_with_brute_force(seed, seed2):
    try:
        a = random_linear_system(6, 5, (2, 3), seed)
        b = random_linear_system(6, 5, (2, 3), seed2)
    except GenerationExhausted:
        return
    assert is_isomorphic(a, b) == brute_isomorphic(a, b)


def _profile(sys):
    """Point count, sorted line sizes and sorted degrees of the pruned system."""
    s = prune_low_degree(sys)[0]
    return (s.n_points, tuple(sorted(map(len, s.lines))),
            tuple(sorted(len(ls) for ls in s.incidence)))


def test_is_isomorphic_agrees_with_keys_on_classes_with_one_profile():
    # every pair that shares the profile reaches the search that stops at
    # the other side's encoding, and both answers occur among them; at
    # (6, 4) the profile alone decides every pair
    rng = random.Random(11)
    groups: dict[tuple, list] = {}
    for sys in exhaustive_small(6, 5):
        groups.setdefault(_profile(sys), []).append(sys)
    answers = []
    for group in groups.values():
        for i, a in enumerate(group):
            for b in group[i:]:
                got = is_isomorphic(_shuffled(a, rng), _shuffled(b, rng))
                assert got == (_canonical_key(a) == _canonical_key(b))
                answers.append(got)
    assert len(answers) == 158 + 603 and answers.count(False) == 47


def test_is_isomorphic_agrees_with_keys_on_relabeled_c44():
    rng = random.Random(12)
    members = [ns.system for ns in enumerate_c44()]
    for i, a in enumerate(members):
        for j, b in enumerate(members):
            got = is_isomorphic(a, _shuffled(b, rng))
            assert got == (_canonical_key(a) == _canonical_key(b)) == (i == j)


def test_is_isomorphic_tells_profiles_apart_without_a_search(monkeypatch, c34, c_sys):
    searched = []
    search = core._canonical_search

    def record(*args, **kwargs):
        searched.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(core, "_canonical_search", record)
    assert not is_isomorphic(c34, c_sys)  # 8 against 10 pruned points
    # same points and line sizes: a path of three lines against a star
    path = new_linear_system(4, [[0, 1], [1, 2], [2, 3]])
    star = new_linear_system(4, [[0, 1], [0, 2], [0, 3]])
    assert not is_isomorphic(path, star)
    assert searched == []


def test_is_isomorphic_stops_at_the_first_matching_leaf(monkeypatch, pi5):
    # after its full search of the first side, is_isomorphic's search of the
    # second ends at the first leaf equal to the first's encoding, with
    # fewer refinements than a full search of it
    calls = []
    refine = core._refine

    def counted(*args):
        calls.append(None)
        return refine(*args)

    monkeypatch.setattr(core, "_refine", counted)

    def refinements(f, *args):
        calls.clear()
        f(*args)
        return len(calls)

    rng = random.Random(13)
    for ns in enumerate_c44():
        a, b = ns.system, _shuffled(ns.system, rng)
        full_a = refinements(_canonical_search, prune_low_degree(a)[0])
        full_b = refinements(_canonical_search, prune_low_degree(b)[0])
        assert refinements(is_isomorphic, a, b) - full_a < full_b
    # a shuffled pi:5's first leaf is rarely the canonical one, so the
    # search goes on past leaves that differ from the target
    assert all(is_isomorphic(pi5, _shuffled(pi5, rng)) for _ in range(3))


def test_embeds_named_chain(pi3, c34, c_sys):
    emb = embeds_as_subsystem(c_sys, pi3)
    assert emb is not None and validate_embedding(c_sys, pi3, emb)
    emb = embeds_as_subsystem(c34, c_sys)
    assert emb is not None and validate_embedding(c34, c_sys, emb)
    assert embeds_as_subsystem(pi3, c_sys) is None  # 13 lines cannot fit in 10


def test_embedding_is_deterministic(c_sys, pi3):
    a = embeds_as_subsystem(c_sys, pi3)
    b = embeds_as_subsystem(c_sys, pi3)
    assert a.point_map == b.point_map and a.line_map == b.line_map


def test_validate_embedding_rejects_tampering(c_sys, pi3):
    emb = embeds_as_subsystem(c_sys, pi3)
    bad = Embedding(dict(emb.point_map), dict(emb.line_map))
    bad.line_map[0] = (emb.line_map[0] + 1) % pi3.n_lines
    assert not validate_embedding(c_sys, pi3, bad)
    bad2 = Embedding(dict(emb.point_map), dict(emb.line_map))
    k0, k1 = 0, 1
    bad2.point_map[k0], bad2.point_map[k1] = bad2.point_map[k1], bad2.point_map[k0]
    assert not validate_embedding(c_sys, pi3, bad2)
    # the witness itself of the wrong type
    for wrong in (None, "x", 3, (emb.point_map, emb.line_map), emb.point_map):
        assert not validate_embedding(c_sys, pi3, wrong)
    # a triangle inside K4 with a tail: True == 1 and 1.0 hash like point 1
    triangle = new_linear_system(3, [[0, 1], [0, 2], [1, 2]])
    host = new_linear_system(5, [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3], [3, 4]])
    emb = embeds_as_subsystem(triangle, host)
    assert emb == Embedding({0: 0, 1: 1, 2: 2}, {0: 0, 1: 1, 2: 3})
    assert validate_embedding(triangle, host, emb)
    for point_map, line_map in (
        ({0: 0, True: 1, 2: 2}, emb.line_map),
        ({0: 0, 1: 1.0, 2: 2}, emb.line_map),
        ({0: 0, 1: True, 2: 2}, emb.line_map),
        (emb.point_map, {0: 0, True: 1, 2: 3}),
        (emb.point_map, {0: 0, 1: 1.0, 2: 3}),
        # maps that are not dicts are rejected, not a crash
        ([0] * 10, emb.line_map),
        (emb.point_map, None),
        (None, emb.line_map),
        (emb.point_map, list(emb.line_map.items())),
    ):
        assert not validate_embedding(triangle, host, Embedding(point_map, line_map))


def _same_embedding(a, b):
    """The search and the plain backtracking reference agree exactly, and a
    witness, if any, passes the checker."""
    emb, ref = embeds_as_subsystem(a, b), backtrack_embedding(a, b)
    if emb is None or ref is None:
        assert emb is None and ref is None
        return None
    assert (emb.point_map, emb.line_map) == (ref.point_map, ref.line_map)
    assert validate_embedding(a, b, emb)
    return emb


def test_embedding_matches_backtrack_reference_on_named(pi3, c34, c_sys):
    assert _same_embedding(c_sys, pi3) is not None
    assert _same_embedding(c34, c_sys) is not None
    assert _same_embedding(pi3, c_sys) is None
    for ns in enumerate_c44():
        assert _same_embedding(ns.system, pi3) is not None
        assert _same_embedding(c_sys, ns.system) is not None


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.tuples(st.integers(6, 8), st.integers(4, 7), st.integers(8, 10), st.integers(6, 12)),
    seed=st.integers(0, 10_000),
    seed2=st.integers(0, 10_000),
)
def test_embedding_matches_backtrack_reference_on_random(sizes, seed, seed2):
    na, la, nb, lb = sizes
    try:
        a = random_linear_system(na, la, (2, 3), seed)
        b = random_linear_system(nb, lb, (2, 4), seed2)
    except GenerationExhausted:
        return
    _same_embedding(a, b)


@settings(max_examples=30, deadline=None)
@given(
    sizes=st.tuples(st.integers(4, 6), st.integers(3, 6), st.integers(6, 10)),
    seed=st.integers(0, 10_000),
    seed2=st.integers(0, 10_000),
)
def test_embeds_agrees_with_brute_force_at_depth(sizes, seed, seed2):
    na, la, lb = sizes
    try:
        a = random_linear_system(na, la, (2, 3), seed)
        b = random_linear_system(8, lb, (2, 3), seed2)
    except GenerationExhausted:
        return
    emb = embeds_as_subsystem(a, b)
    assert (emb is not None) == brute_embeds(a, b)
    if emb is not None:
        assert validate_embedding(a, b, emb)


def test_embedding_degree_filter_alone_rejects():
    # K4 fits the 8-cycle by size, but each of its points needs three lines
    # and no host point has more than two: every domain starts empty
    k4 = new_linear_system(4, [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])
    cycle = new_linear_system(8, [[i, (i + 1) % 8] for i in range(8)])
    assert embeds_as_subsystem(k4, cycle) is None
    assert backtrack_embedding(k4, cycle) is None
    assert not brute_embeds(k4, cycle)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), shuffle_seed=st.integers(0, 10_000))
def test_is_isomorphic_positive_pairs_match_brute_force(seed, shuffle_seed):
    try:
        a = random_linear_system(6, 4, (2, 3), seed)
    except GenerationExhausted:
        return
    b = _shuffled(a, random.Random(shuffle_seed))
    assert is_isomorphic(a, b)
    assert brute_isomorphic(a, b)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), pick=st.integers(0, 1 << 16))
def test_induced_subsystems_embed_back_into_host(seed, pick):
    try:
        host = random_linear_system(9, 6, (2, 4), seed)
    except GenerationExhausted:
        return
    subset = [i for i in range(host.n_lines) if pick >> i & 1]
    sub, _ = prune_low_degree(induced_subsystem(host, subset)[0])
    emb = embeds_as_subsystem(sub, host)
    assert emb is not None
    assert validate_embedding(sub, host, emb)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), seed2=st.integers(0, 10_000))
def test_embeds_agrees_with_brute_force_on_small(seed, seed2):
    try:
        a = random_linear_system(5, 3, (2, 3), seed)
        b = random_linear_system(7, 5, (2, 3), seed2)
    except GenerationExhausted:
        return
    emb = embeds_as_subsystem(a, b)
    assert (emb is not None) == brute_embeds(a, b)
    if emb is not None:
        assert validate_embedding(a, b, emb)


def test_exhaustive_classes_pairwise_distinct_by_brute_force():
    # generated classes are deduplicated without pruning, so the pairwise
    # distinctness oracle must compare raw structures; reshuffled copies of
    # each class must still collide
    from linsys import exhaustive_small

    classes = [s for s in exhaustive_small(5, 3, (2, 3)) if s.n_points <= 5]
    rng = random.Random(17)
    for i, a in enumerate(classes):
        if a.n_points:
            assert brute_isomorphic(a, _shuffled(a, rng), prune=False)
        for b in classes[i + 1:]:
            assert not brute_isomorphic(a, b, prune=False)


def test_canonical_form_on_highly_symmetric_structures():
    rng = random.Random(4)
    # disjoint copies of one triangle: the automorphism group is large and
    # the labeler must still land on a single representative
    two_triangles = new_linear_system(
        6, [[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5]]
    )
    for _ in range(25):
        assert canonical_form(_shuffled(two_triangles, rng)) == canonical_form(
            two_triangles
        )
    one_triangle = new_linear_system(3, [[0, 1], [0, 2], [1, 2]])
    assert not is_isomorphic(two_triangles, one_triangle)

    # 3x3 grid lines: rows and columns, transitive on points
    rows = [[3 * r + c for c in range(3)] for r in range(3)]
    cols = [[3 * r + c for r in range(3)] for c in range(3)]
    grid = new_linear_system(9, rows + cols)
    for _ in range(25):
        assert canonical_form(_shuffled(grid, rng)) == canonical_form(grid)


def test_embeds_handles_pruning_of_candidate():
    # candidate has degree-1 decorations that must be ignored
    decorated = new_linear_system(5, [[0, 1, 3], [0, 2, 4], [1, 2]])
    host = new_linear_system(4, [[0, 1], [0, 2], [1, 2], [0, 3]])
    emb = embeds_as_subsystem(decorated, host)
    assert emb is not None
    assert validate_embedding(decorated, host, emb)
    pruned, _ = prune_low_degree(decorated)
    assert set(emb.point_map) == set(range(pruned.n_points))


def _encoding(sys, lab):
    """The encoding ``lab`` gives: lines relabeled, sorted by (size, tuple)."""
    relabeled = sorted((tuple(sorted(lab[p] for p in l)) for l in sys.lines),
                       key=lambda t: (len(t), t))
    return (sys.n_points, tuple(relabeled))


def _maps_lines_onto_lines(sys, g):
    """One pass over the incidences: every line's image is a line."""
    lines = set(sys.lines)
    return all(tuple(sorted(g[p] for p in line)) in lines for line in sys.lines)


@pytest.mark.parametrize("fixture", ["pi2", "pi3", "pi5", "c34", "c_sys"])
def test_search_automorphisms_map_lines_onto_lines(fixture, request):
    sys = request.getfixturevalue(fixture)
    enc, lab, autos = _canonical_search(sys)
    assert autos
    for g in autos:
        assert sorted(g) == list(range(sys.n_points)) and g != tuple(range(sys.n_points))
        assert _maps_lines_onto_lines(sys, g)
    # the labeling is the one the encoding was read from
    assert enc == _encoding(sys, lab)


def test_search_automorphisms_generate_the_group_on_small_classes():
    from linsys import exhaustive_small

    for sys in exhaustive_small(6, 4):
        _, _, autos = _canonical_search(sys)
        assert all(_maps_lines_onto_lines(sys, g) for g in autos)
        group = automorphism_closure(autos, sys.n_points)
        assert group == set(brute_automorphisms(sys))


def test_search_automorphisms_of_pi3_and_a_triangle(pi3):
    _, _, autos = _canonical_search(pi3)
    assert len(automorphism_closure(autos, pi3.n_points)) == 5616  # |PGL(3, 3)|
    # with the vertices coloured apart, the search finds their stabilizer
    tri = set(find_triangles(pi3)[0].vertices)
    _, _, autos = _canonical_search(pi3, tuple(int(p in tri) for p in range(13)))
    group = automorphism_closure(autos, pi3.n_points)
    assert len(group) == 24  # 5616 / 234 triangles
    assert all({g[p] for p in tri} == tri for g in group)
    assert all(_maps_lines_onto_lines(pi3, g) for g in group)


def _agrees_with_plain_search(sys, colors=None, reference=None):
    """Same encoding as the plain search, a labeling that reproduces it, and,
    up to 13 points, automorphisms that generate the same group."""
    enc, lab, autos = _canonical_search(sys, colors)
    ref_enc, _, ref_autos = reference or plain_canonical_search(sys, colors)
    assert enc == ref_enc
    assert _encoding(sys, lab) == enc
    if sys.n_points <= 13:
        n = sys.n_points
        assert automorphism_closure(autos, n) == automorphism_closure(ref_autos, n)


def test_search_matches_plain_search_on_exhaustive_classes():
    classes = exhaustive_small(7, 5)
    assert len(classes) == 421
    for sys in classes:
        _agrees_with_plain_search(sys)


def test_search_matches_plain_search_on_shuffled_fixtures(pi3):
    rng = random.Random(17)
    for inst in fixture_instances():
        # the plain search takes seconds on a shuffled pi:5; its encoding is
        # invariant, so one run on the fixture serves all shuffles
        reference = plain_canonical_search(inst.system) if inst.name == "pi:5" else None
        _agrees_with_plain_search(inst.system, reference=reference)
        for _ in range(10):
            _agrees_with_plain_search(_shuffled(inst.system, rng), reference=reference)
    # the c44 search's start: pi:3 with a triangle's vertices coloured apart
    tri = set(find_triangles(pi3)[0].vertices)
    _agrees_with_plain_search(pi3, tuple(int(p in tri) for p in range(13)))


def test_search_matches_plain_search_on_random_systems():
    for inst in random_instances(3, 300):
        _agrees_with_plain_search(inst.system)


def test_canonical_form_of_pi5_refines_at_most_200_times(pi5, monkeypatch):
    # the plain search refines 1,447 times here, this search 118 times
    calls = []
    refine = core._refine

    def counted(*args):
        calls.append(None)
        return refine(*args)

    monkeypatch.setattr(core, "_refine", counted)
    assert canonical_form(pi5).pruned_sizes == (31, 31)
    assert 0 < len(calls) <= 200


def _dense(colors):
    return sorted(set(colors)) == list(range(len(set(colors))))


def test_refine_matches_plain_refine_on_recorded_inputs(monkeypatch, pi2, pi3, pi5):
    # the inputs of every refinement of exhaustive generation, of both c44
    # searches (each starts from pi:3 with a triangle's vertices coloured
    # apart), of is_isomorphic on relabeled c44 pairs and of shuffled pi:2,
    # pi:3 and pi:5: every caller hands _refine dense ranks, the one input
    # mode it takes, and there it equals the plain refinement
    recorded = []
    refine = core._refine

    def record(sys, colors):
        recorded.append((sys, colors))
        return refine(sys, colors)

    monkeypatch.setattr(core, "_refine", record)
    monkeypatch.setattr(constructions, "_refine", record)
    exhaustive_small(7, 5)
    members = [ns.system for ns in enumerate_c44.__wrapped__()]
    constructions.enumerate_c44_exhaustive()
    rng = random.Random(14)
    for a in members:
        for b in members:
            is_isomorphic(a, _shuffled(b, rng))
    for plane in (pi2, pi3, pi5):
        canonical_form(_shuffled(plane, rng))
    monkeypatch.undo()
    kinds = set()
    for sys, colors in recorded:
        assert _dense(colors)
        got = core._refine(sys, colors)
        assert got == _plain_refine(sys.n_points, sys.lines, sys.incidence, colors)
        kinds.add((len(set(colors)) == len(colors), got == colors))
    # discrete, already equitable and still to refine
    assert {(True, True), (False, True), (False, False)} <= kinds
