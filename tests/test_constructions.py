import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from linsys import (
    BadPointId,
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
from linsys import constructions
from linsys.constructions import (
    GenerationExhausted,
    _c44_classes,
    _line_fits,
    _subsets,
    enumerate_c44_exhaustive,
)
from linsys.core import _canonical_search, _restrict
from linsys.files import MAX_POINTS
from linsys.verify import _RANDOM_PROFILES

from _oracles import (
    automorphism_closure,
    brute_line_fits,
    rejection_sampler,
    scanned_plane,
    unpruned_c44_classes,
)


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


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11])
def test_projective_plane_matches_coordinate_scan(q):
    assert projective_plane(q).system == scanned_plane(q)


def test_projective_plane_guards():
    for q in (4, 1, 0, -7, True, 3.0, "3"):
        with pytest.raises(NotPrime):
            projective_plane(q)
    # any order above 11 is too large, prime or not, and fails at once
    for q in (13, 12, 2**61 - 1):
        with pytest.raises(TooLarge):
            projective_plane(q)


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
    # pi:3's first triangle, named with ids that are not ints: True == 1 and
    # 1.0 == 1, so only the type check rejects them
    assert tri == Triangle((0, 1, 4), (0, 1, 4))
    for bad in [
        Triangle((0, 1.0, 4), (0, 1, 4)),
        Triangle((False, 1, 4), (0, 1, 4)),
        Triangle((0, 1, 4), (0.0, 1, 4)),
    ]:
        with pytest.raises(NotATriangle):
            triangle_delete(pi3, bad)


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


def test_c44_restrictions_never_collapse(pi3, c_sys):
    """Every restriction either c44 search tries keeps all its lines and
    points, and each family member replays from its provenance."""
    tri = find_triangles(pi3)[0]
    base = set(range(pi3.n_points)) - set(tri.vertices)
    for added in _subsets(tri.vertices):
        for k in range(c_sys.n_lines, pi3.n_lines + 1):
            for chosen in itertools.combinations(range(pi3.n_lines), k):
                s, _ = _restrict(pi3, base | set(added), chosen)
                assert (s.n_points, s.n_lines) == (10 + len(added), len(chosen))
    parents = [i for i in range(pi3.n_lines) if i not in tri.sides]
    for ns in enumerate_c44():
        prov = ns.prov()
        keep = base | set(prov["added_points"])
        chosen = sorted(parents + list(prov["added_sides"]))
        assert _restrict(pi3, keep, chosen)[0] == ns.system


def test_c44_searches_match_unpruned_reference(pi3):
    # orbit pruning keeps the first pair of each orbit, so each class keeps
    # the member, added vertices and line set the full loop finds first
    tri = find_triangles(pi3)[0]
    parents = [i for i in range(pi3.n_lines) if i not in tri.sides]
    family = [tuple(sorted(parents + list(s))) for s in _subsets(tri.sides)]
    every = [s for s in _subsets(range(pi3.n_lines)) if len(s) >= 10]
    want_family = unpruned_c44_classes(tri, family)
    want_every = unpruned_c44_classes(tri, every)
    for line_sets, want in ((family, want_family), (every, want_every)):
        assert len(want) == 8
        assert _c44_classes(tri, line_sets) == want
    replayed = [
        (ns.name, ns.prov()["added_points"],
         tuple(sorted(parents + list(ns.prov()["added_sides"]))), ns.system)
        for ns in enumerate_c44()
    ]
    assert replayed == [(f"c44:{i}", *cls) for i, cls in enumerate(want_family)]
    assert enumerate_c44_exhaustive() == tuple(cand for _, _, cand in want_every)


def test_c44_search_tries_one_pair_per_orbit(pi3, monkeypatch):
    # the pairs restricted are exactly the unpruned ones that come first in
    # their orbit under the whole stabilizer of the triangle's vertices
    tri = find_triangles(pi3)[0]
    tried = []

    def record(sys, keep, chosen):
        tried.append((tuple(sorted(set(keep) & set(tri.vertices))), chosen))
        return restrict(sys, keep, chosen)

    restrict = constructions._restrict
    monkeypatch.setattr(constructions, "_restrict", record)
    enumerate_c44_exhaustive()
    colors = tuple(int(p in tri.vertices) for p in range(13))
    group = automorphism_closure(_canonical_search(pi3, colors)[2], 13)
    line_of = {line: i for i, line in enumerate(pi3.lines)}
    pairs = [
        (pts, chosen)
        for pts in _subsets(tri.vertices)
        for chosen in _subsets(range(13)) if len(chosen) >= 10
    ]
    rank = {pair: i for i, pair in enumerate(pairs)}
    want = []
    for pts, chosen in pairs:
        images = (
            (tuple(sorted(g[p] for p in pts)),
             tuple(sorted(line_of[tuple(sorted(g[p] for p in pi3.lines[i]))] for i in chosen)))
            for g in group
        )
        if min(rank[image] for image in images) == rank[(pts, chosen)]:
            want.append((pts, chosen))
    assert len(want) == 236
    assert tried == want


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
    # three points have three pairs, so at most three lines fit; seed 0
    # draws the whole ground set first, which leaves no free pair
    with pytest.raises(GenerationExhausted, match="no line of 2 to 3 points fits after 1/40"):
        random_linear_system(3, 40, (2, 3), 0)
    with pytest.raises(GenerationExhausted):
        random_linear_system(4, 2, (5, 6), 0)


def test_random_generator_rejects_malformed_arguments():
    for n_points in (2.5, True, "5"):
        with pytest.raises(BadPointId):
            random_linear_system(n_points, 1, (1, 2), 0)
    for n_lines in (-1, 2.0, True, None):
        with pytest.raises(GenerationExhausted):
            random_linear_system(5, n_lines, (2, 3), 0)
    for sizes in ((2.0, 3), (2, 3.5), (False, 2), (1, True), (1, 2, 3), (2,), None, 5):
        with pytest.raises(GenerationExhausted):
            random_linear_system(5, 2, sizes, 0)
    assert random_linear_system(5, 0, (2, 3), 0).n_lines == 0
    # a None seed would seed from the operating system; every other seed repeats
    with pytest.raises(GenerationExhausted, match="needs a seed"):
        random_linear_system(5, 2, (2, 2), None)
    for seed in (7, 7.5, "seven"):
        assert random_linear_system(5, 2, (2, 2), seed) == random_linear_system(5, 2, (2, 2), seed)


def _draw(sampler, *args):
    try:
        return sampler(*args)
    except GenerationExhausted:
        return None


@settings(max_examples=150, deadline=None)
@given(
    n_points=st.integers(1, 10),
    n_lines=st.integers(0, 12),
    lo=st.integers(1, 4),
    spread=st.integers(0, 3),
    seed=st.integers(0, 2**32),
)
def test_random_generator_matches_rejection_loop(n_points, n_lines, lo, spread, seed):
    """Stopping once no line fits changes no draw: both return the same
    system or both raise."""
    args = (n_points, n_lines, (lo, lo + spread), seed)
    assert _draw(random_linear_system, *args) == _draw(rejection_sampler, *args)


def test_random_generator_matches_rejection_loop_on_harness_profiles():
    outcomes = set()
    for n_points, n_lines, sizes in _RANDOM_PROFILES:
        for seed in range(60):
            got = _draw(random_linear_system, n_points, n_lines, sizes, seed)
            assert got == _draw(rejection_sampler, n_points, n_lines, sizes, seed)
            outcomes.add(got is None)
    assert outcomes == {True, False}


def test_draw_mask_matches_randint_then_sample():
    """One draw at a time, the same words as the stdlib calls.  Up to 21
    points ``sample`` swaps out of a pool; above that it draws into a set,
    except for 6 to 9 points out of at most 85, which take the pool again."""
    for n in range(1, 91):
        for lo in range(1, min(n, 9) + 1):
            for hi in range(lo, min(n, 9) + 1):
                rng = random.Random(n * 100 + lo * 10 + hi)
                mine = random.Random(n * 100 + lo * 10 + hi)
                for _ in range(5):
                    size = rng.randint(lo, hi)
                    mask = sum(1 << p for p in rng.sample(range(n), size))
                    assert constructions._draw_mask(mine.getrandbits, n, lo, hi) == (size, mask)
                assert rng.getstate() == mine.getstate()


@pytest.mark.parametrize("args", [(30, 35, (4, 6)), (25, 10, (1, 7)), (40, 12, (6, 9))])
def test_random_generator_matches_rejection_loop_past_21_points(args):
    outcomes = set()
    for seed in range(25):
        got = _draw(random_linear_system, *args, seed)
        assert got == _draw(rejection_sampler, *args, seed)
        outcomes.add(got is None)
    assert False in outcomes


def test_random_generator_bounds_the_ground_set():
    # the sampler's free masks take n_points**2 bits
    with pytest.raises(TooLarge, match="exceeds the supported limit of 10000"):
        random_linear_system(MAX_POINTS + 1, 1, (2, 2), 0)
    assert random_linear_system(MAX_POINTS, 1, (2, 2), 0).n_points == MAX_POINTS


def test_line_fits_matches_brute_force():
    rng = random.Random(12)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(1, 8)
        lines: list[tuple[int, ...]] = []
        for _ in range(rng.randint(0, 30)):
            pts = tuple(sorted(rng.sample(range(n), rng.randint(1, min(4, n)))))
            if pts not in lines and all(len(set(pts) & set(l)) <= 1 for l in lines):
                lines.append(pts)
        free = [
            sum(1 << q for q in range(n) if q != p and not any({p, q} <= set(l) for l in lines))
            for p in range(n)
        ]
        singles = sum(1 << l[0] for l in lines if len(l) == 1)
        for lo in range(1, min(4, n) + 1):
            for hi in range(lo, n + 1):
                want = brute_line_fits(n, lines, lo, hi)
                assert _line_fits(free, singles, lo, hi) == want, (n, lines, lo, hi)
                outcomes.add(want)
    assert outcomes == {True, False}


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
