import itertools

import pytest
from hypothesis import given, settings, strategies as st

from linsys import (
    BadLineIndex,
    BadPointId,
    DuplicateLine,
    EmptyLine,
    LinearityViolation,
    TooFewLines,
    degree,
    delete_line,
    delete_point,
    induced_subsystem,
    lines_through,
    max_degree,
    new_linear_system,
    points_of_degree_at_least,
    prune_low_degree,
    random_linear_system,
    three_hypergraph,
    brute_force_two_packing,
    transversal_number,
    two_packing_number,
)
from linsys.constructions import GenerationExhausted


def test_construct_c_table(c_sys):
    assert c_sys.n_points == 10
    assert c_sys.n_lines == 10


def test_construct_empty_system():
    s = new_linear_system(0, [])
    assert s.n_points == 0 and s.n_lines == 0


def test_construct_rejects_two_shared_points():
    with pytest.raises(LinearityViolation) as exc:
        new_linear_system(4, [{0, 1, 2}, {0, 1, 3}])
    assert exc.value.line_a == 0 and exc.value.line_b == 1
    assert sorted(exc.value.shared) == [0, 1]


def test_construct_rejects_bad_ids_duplicates_and_empty():
    with pytest.raises(BadPointId):
        new_linear_system(3, [[0, 3]])
    for bad in ([[0, True]], [[1, True]], [[True, 2]]):
        with pytest.raises(BadPointId):
            new_linear_system(3, bad)
    with pytest.raises(BadPointId):
        new_linear_system(True, [[0]])
    with pytest.raises(DuplicateLine):
        new_linear_system(4, [[0, 1], [2, 3], [1, 0]])
    with pytest.raises(EmptyLine):
        new_linear_system(3, [[0, 1], []])


def test_lines_are_sorted_and_deduplicated_within():
    s = new_linear_system(5, [[3, 1, 3], [4, 0]])
    assert s.lines == ((1, 3), (0, 4))


def test_degree_named_systems(pi3, c34):
    assert all(degree(pi3, p) == 4 for p in range(13))
    assert all(degree(c34, p) == 3 for p in range(8))
    s = new_linear_system(3, [[0, 1]])
    assert degree(s, 2) == 0
    with pytest.raises(BadPointId):
        degree(s, 3)


def test_degree_accessors(pi3, c34):
    assert max_degree(pi3) == 4
    assert points_of_degree_at_least(c34, 4) == frozenset()
    assert points_of_degree_at_least(pi3, 4) == frozenset(range(13))
    assert lines_through(pi3, 0) == frozenset(
        i for i, l in enumerate(pi3.lines) if 0 in l
    )
    empty = new_linear_system(0, [])
    with pytest.raises(BadPointId):
        lines_through(empty, 0)


def test_delete_point_shrinks_two_point_line():
    s = new_linear_system(4, [[0, 1], [1, 2, 3]])
    out, relabel = delete_point(s, 0)
    assert out.lines == ((0,), (0, 1, 2))
    assert relabel == {1: 0, 2: 1, 3: 2}


def test_delete_point_drops_uncovered_ground_set():
    s = new_linear_system(4, [[0, 1], [1, 2]])  # point 3 isolated
    out, _ = delete_point(s, 3)
    assert out.n_points == 3 and out.lines == ((0, 1), (1, 2))


def test_delete_point_merges_residual_duplicates():
    s = new_linear_system(3, [[0, 1], [0, 2]])
    mid, relabel = delete_point(s, 1)
    assert mid.lines == ((0,), (0, 1))
    out, _ = delete_point(mid, relabel[2])
    assert out.lines == ((0,),)


def test_delete_line_examples(pi3):
    single = new_linear_system(3, [[0, 1, 2]])
    out, _ = delete_line(single, 0)
    assert out.n_points == 0 and out.n_lines == 0

    out, _ = delete_line(pi3, 0)
    assert out.n_lines == 12 and out.n_points == 13
    assert brute_force_two_packing(out).value == 4

    with pytest.raises(BadLineIndex):
        delete_line(single, 1)


def test_delete_all_lines_through_point_removes_it(pi3):
    keep = [i for i in range(13) if 0 not in pi3.lines[i]]
    out, relabel = induced_subsystem(pi3, keep)
    assert 0 not in relabel
    assert out.n_points == 12


def test_induced_subsystem(pi3):
    out, _ = induced_subsystem(pi3, range(13))
    assert out.n_points == 13 and out.n_lines == 13

    through0 = sorted(lines_through(pi3, 0))
    out, _ = induced_subsystem(pi3, through0)
    assert out.n_points == 13 and out.n_lines == 4

    out, _ = induced_subsystem(pi3, [])
    assert out.n_points == 0 and out.n_lines == 0


def test_prune_low_degree(c34):
    out, _ = prune_low_degree(c34)
    assert out == c34  # 3-regular, nothing to prune

    single = new_linear_system(3, [[0, 1, 2]])
    out, _ = prune_low_degree(single)
    assert out.n_points == 0 and out.n_lines == 0


def test_prune_preserves_numbers_when_lines_keep_two_covered_points():
    # condition: every line keeps at least two points of degree >= 2
    for seed in range(40):
        try:
            s = random_linear_system(9, 6, (3, 4), seed)
        except GenerationExhausted:
            continue
        pruned, _ = prune_low_degree(s)
        counts = [0] * s.n_points
        for line in s.lines:
            for p in line:
                counts[p] += 1
        if all(sum(1 for p in line if counts[p] >= 2) >= 2 for line in s.lines):
            assert transversal_number(pruned).value == transversal_number(s).value
            assert two_packing_number(pruned).value == two_packing_number(s).value


def test_plane_deletion_chain_reaches_c34(pi3):
    # delete a point, its four lines, one line avoiding it, then that line's
    # four points; the result is the 8/8 extremal system
    from linsys import c34_explicit, is_isomorphic

    k = 3
    s, pmap = delete_point(pi3, k)  # line order and indices survive this
    k_lines = lines_through(pi3, k)
    keep = [i for i in range(s.n_lines) if i not in k_lines]
    l = next(i for i in range(pi3.n_lines) if i not in k_lines)
    s, pmap2 = induced_subsystem(s, keep)
    l_points = [pmap2[pmap[p]] for p in pi3.lines[l]]
    s, pmap3 = delete_line(s, keep.index(l))
    pts = sorted(pmap3[q] for q in l_points)
    while pts:
        s, m = delete_point(s, pts.pop())
        pts = [m[x] for x in pts]
    assert s.n_points == 8 and s.n_lines == 8
    assert is_isomorphic(s, c34_explicit().system)


def test_three_hypergraph_examples(pi3):
    concurrent = new_linear_system(4, [[0, 1], [0, 2], [0, 3]])
    assert three_hypergraph(concurrent).edges == frozenset()

    disjoint = new_linear_system(6, [[0, 1], [2, 3], [4, 5]])
    assert three_hypergraph(disjoint).edges == frozenset({(0, 1, 2)})

    h = three_hypergraph(pi3)
    expected = frozenset(
        (a, b, c)
        for a, b, c in itertools.combinations(range(13), 3)
        if not set(pi3.lines[a]) & set(pi3.lines[b]) & set(pi3.lines[c])
    )
    assert h.edges == expected

    with pytest.raises(TooFewLines):
        three_hypergraph(new_linear_system(2, [[0, 1]]))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_reductions_preserve_linearity_and_shrink(seed):
    try:
        s = random_linear_system(8, 5, (2, 4), seed)
    except GenerationExhausted:
        return
    # constructors revalidate, so reaching here at all is the invariant;
    # also sanity-check the relabeling maps
    out, relabel = delete_point(s, seed % s.n_points)
    assert set(relabel.values()) == set(range(out.n_points))
    out2, relabel2 = delete_line(s, seed % s.n_lines)
    assert set(relabel2.values()) == set(range(out2.n_points))
    out3, _ = prune_low_degree(s)
    assert out3.n_points <= s.n_points


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_monotonicity_under_line_deletion(seed):
    try:
        s = random_linear_system(9, 6, (2, 4), seed)
    except GenerationExhausted:
        return
    tau = transversal_number(s).value
    nu2 = two_packing_number(s).value
    smaller, _ = delete_line(s, seed % s.n_lines)
    assert transversal_number(smaller).value <= tau
    assert nu2 - 1 <= two_packing_number(smaller).value <= nu2
