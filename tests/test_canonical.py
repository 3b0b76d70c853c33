import random

import pytest
from hypothesis import given, settings, strategies as st

from linsys import (
    Embedding,
    canonical_form,
    c34_from_pi3,
    embeds_as_subsystem,
    induced_subsystem,
    is_isomorphic,
    new_linear_system,
    prune_low_degree,
    random_linear_system,
    validate_embedding,
)
from linsys.constructions import GenerationExhausted

from _oracles import brute_embeds, brute_isomorphic


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
    # the search keeps 972 and 345 automorphisms on these two shuffles
    base = canonical_form(pi5)
    assert base.pruned_sizes == (31, 31)
    rng = random.Random(99)
    for _ in range(2):
        assert canonical_form(_shuffled(pi5, rng)) == base


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


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), seed2=st.integers(0, 10_000))
def test_is_isomorphic_agrees_with_brute_force(seed, seed2):
    try:
        a = random_linear_system(6, 5, (2, 3), seed)
        b = random_linear_system(6, 5, (2, 3), seed2)
    except GenerationExhausted:
        return
    assert is_isomorphic(a, b) == brute_isomorphic(a, b)


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
