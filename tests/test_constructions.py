import itertools

import pytest

from linsys import (
    NotATriangle,
    NotPrime,
    PointOnLine,
    Triangle,
    TooLarge,
    c34_from_pi3,
    degree,
    enumerate_c44,
    find_triangles,
    is_isomorphic,
    new_linear_system,
    projective_plane,
    random_linear_system,
    transversal_number,
    triangle_delete,
    two_packing_number,
)
from linsys.constructions import GenerationExhausted


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_projective_plane_axioms(q):
    s = projective_plane(q).system
    n = q * q + q + 1
    assert s.n_points == n and s.n_lines == n
    assert all(len(l) == q + 1 for l in s.lines)
    assert all(degree(s, p) == q + 1 for p in range(n))
    for i, j in itertools.combinations(range(n), 2):
        assert (s.masks[i] & s.masks[j]).bit_count() == 1
    joined = set()
    for line in s.lines:
        for pair in itertools.combinations(line, 2):
            assert pair not in joined
            joined.add(pair)
    assert len(joined) == n * (n - 1) // 2  # every point pair joined once


def test_projective_plane_guards():
    with pytest.raises(NotPrime):
        projective_plane(4)
    with pytest.raises(NotPrime):
        projective_plane(1)
    with pytest.raises(TooLarge):
        projective_plane(13)


def test_c34_explicit_shape(c34):
    assert c34.n_points == 8 and c34.n_lines == 8
    assert all(len(l) == 3 for l in c34.lines)
    assert all(degree(c34, p) == 3 for p in range(8))
    assert (0, 1, 2) in c34.lines  # the line {p,q,x1}


def test_c34_from_pi3_well_defined(c34, pi3):
    k = 5
    good = [l for l, line in enumerate(pi3.lines) if k not in line]
    assert len(good) == 9
    ns = c34_from_pi3(k, good[0])
    assert ns.system.n_points == 8 and ns.system.n_lines == 8
    assert is_isomorphic(ns.system, c34)
    bad = next(l for l, line in enumerate(pi3.lines) if k in line)
    # line 1 misses point 1, so only the type check rejects the bools and 1.5
    assert 1 not in pi3.lines[1]
    for args in [(k, bad), (True, 1), (1.5, 1), (1, True)]:
        with pytest.raises(PointOnLine):
            c34_from_pi3(*args)


def test_find_triangles_matches_brute_force(pi2):
    tris = find_triangles(pi2)
    assert tris
    expected = set()
    for a, b, c in itertools.combinations(range(pi2.n_points), 3):
        lines = [set(l) for l in pi2.lines]
        if any({a, b, c} <= l for l in lines):
            continue
        if all(
            any({u, v} <= l for l in lines)
            for u, v in itertools.combinations((a, b, c), 2)
        ):
            expected.add((a, b, c))
    assert {t.vertices for t in tris} == expected


def test_find_triangles_concurrent_lines_give_none():
    s = new_linear_system(4, [[0, 1], [0, 2], [0, 3]])
    assert find_triangles(s) == []


def test_triangle_delete(pi3, c_sys):
    tri = find_triangles(pi3)[0]
    ns = triangle_delete(projective_plane(3), tri)
    assert ns.system.n_points == 10 and ns.system.n_lines == 10
    assert is_isomorphic(ns.system, c_sys)
    with pytest.raises(NotATriangle):
        triangle_delete(projective_plane(3), Triangle((0, 1, 2), (0, 1, 2)))
    # in K4 the three lines off the triangle all shrink to the fourth point;
    # equal residuals merge, as in delete_point
    k4 = new_linear_system(4, itertools.combinations(range(4), 2))
    ns = triangle_delete(k4, Triangle((0, 1, 2), (0, 1, 3)))
    assert ns.system.n_points == 1 and ns.system.lines == ((0,),)


def _c_remark_bullets(s):
    degs = [degree(s, p) for p in range(s.n_points)]
    sizes = [len(l) for l in s.lines]
    assert all(3 <= d <= 4 for d in degs)
    assert all(3 <= k <= 4 for k in sizes)
    adjacency = {p: set() for p in range(s.n_points)}
    for line in s.lines:
        for u, v in itertools.combinations(line, 2):
            adjacency[u].add(v)
            adjacency[v].add(u)
    for p in range(s.n_points):
        collinear_with_all = len(adjacency[p]) == s.n_points - 1
        assert (degs[p] == 4) == collinear_with_all
    for i, line in enumerate(s.lines):
        meets_all = all(
            i == j or s.masks[i] & s.masks[j] for j in range(s.n_lines)
        )
        assert (len(line) == 4) == meets_all
    deg4 = {p for p in range(s.n_points) if degs[p] == 4}
    for line in s.lines:
        assert len(deg4 & set(line)) <= 2  # no three collinear degree-4 points
    for i in range(s.n_lines):
        disjoint_partners = sum(
            1 for j in range(s.n_lines) if i != j and not (s.masks[i] & s.masks[j])
        )
        assert disjoint_partners <= 1


def test_c_explicit_structure(c_sys):
    assert c_sys.n_points == 10 and c_sys.n_lines == 10
    _c_remark_bullets(c_sys)
    deg4 = [p for p in range(10) if degree(c_sys, p) == 4]
    assert len(deg4) == 4


def test_enumerate_c44_membership(c_sys, pi3):
    from linsys import embeds_as_subsystem

    members = enumerate_c44()
    assert len(members) == 8  # frozen from the dual-pass enumeration
    for ns in members:
        s = ns.system
        assert two_packing_number(s).value == 4
        assert transversal_number(s).value == 4
        assert embeds_as_subsystem(c_sys, s) is not None
        assert embeds_as_subsystem(s, pi3) is not None
        assert c_sys.n_lines <= s.n_lines <= c_sys.n_lines + 3


def test_enumerate_c44_contains_endpoints(c_sys, pi3):
    members = enumerate_c44()
    assert any(is_isomorphic(ns.system, c_sys) for ns in members)
    assert any(is_isomorphic(ns.system, pi3) for ns in members)


def test_random_generator_contract():
    a = random_linear_system(10, 6, (2, 4), 123)
    b = random_linear_system(10, 6, (2, 4), 123)
    assert a == b
    c = random_linear_system(10, 6, (2, 4), 124)
    assert a != c  # astronomically unlikely to collide
    with pytest.raises(GenerationExhausted):
        random_linear_system(3, 40, (2, 3), 0)
    with pytest.raises(GenerationExhausted):
        random_linear_system(4, 2, (5, 6), 0)


def test_random_generator_yields_packing_four_instances():
    # measured yield at these parameters is roughly a quarter of the seeds
    hits = 0
    for seed in range(40):
        try:
            s = random_linear_system(9, 7, (3, 4), seed)
        except GenerationExhausted:
            continue
        if two_packing_number(s).value == 4:
            hits += 1
    assert hits > 0
