import math
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from linsys import (
    BadLineIndex,
    BadPointId,
    TooLarge,
    brute_force_transversal,
    brute_force_two_packing,
    chromatic_number_3h,
    clique_number_3h,
    is_transversal,
    is_two_packing,
    max_degree,
    new_linear_system,
    projective_plane,
    random_linear_system,
    three_hypergraph,
    transversal_number,
    two_packing_number,
)
from linsys.constructions import GenerationExhausted

from _oracles import branch_and_bound_transversal

# symbol ids in the c34 table: p=0 q=1 x1=2 x2=3 x3=4 y1=5 y3=6 y4=7
C34_PACKING = {7, 6, 3, 5}  # lines {p,x2,y4},{q,x3,y3},{x1,x3,y4},{x1,x2,y3}


def test_is_transversal_examples(pi3, c34):
    # {x1,x2,y1,y3} pierces everything; {x1,x2,y1,y4} misses line {q,x3,y3}
    # (see the erratum in the README).  8 of the 30 size-4 transversals
    # share three points with it.
    assert is_transversal(c34, {2, 3, 5, 6})
    assert not is_transversal(c34, {2, 3, 5, 7})
    assert not is_transversal(c34, set())
    for line in pi3.lines:
        assert is_transversal(pi3, set(line))  # every plane line pierces all
    with pytest.raises(BadPointId):
        is_transversal(c34, {0, 99})
    with pytest.raises(BadPointId):
        is_transversal(c34, {True})


def test_is_two_packing_examples(c34):
    assert is_two_packing(c34, C34_PACKING)
    concurrent = new_linear_system(4, [[0, 1], [0, 2], [0, 3]])
    assert not is_two_packing(concurrent, {0, 1, 2})
    assert is_two_packing(concurrent, {0, 1})
    assert is_two_packing(concurrent, set())
    # a repeated line is not two lines of a packing
    for repeated in ((0, 0), (0, 0, 0), [1, 2, 1]):
        assert not is_two_packing(concurrent, repeated)
        assert not is_two_packing(c34, repeated)
    with pytest.raises(BadLineIndex):
        is_two_packing(c34, {0, 8})
    with pytest.raises(BadLineIndex):
        is_two_packing(c34, {True})


def test_transversal_number_named(pi3, c34):
    cert = transversal_number(pi3)
    assert cert.value == 4 and is_transversal(pi3, cert.members)
    cert = transversal_number(c34)
    assert cert.value == 4 and is_transversal(c34, cert.members)
    assert transversal_number(new_linear_system(3, [[0, 1, 2]])).value == 1
    empty = transversal_number(new_linear_system(5, []))
    assert empty.value == 0 and empty.members == ()


def test_tau_counts_up_from_the_root_bound():
    # every budget below the root's two counts would be cut at the root: on
    # a plane the counting bound and on disjoint lines the disjoint count is
    # already tau, so tau's first top-level call (lo == 0) succeeds
    budgets = []

    def profile(frame, event, arg):
        if (event == "call" and frame.f_code.co_name == "coverable"
                and frame.f_back.f_code.co_name == "transversal_number"
                and frame.f_locals["lo"] == 0):
            budgets.append(frame.f_locals["budget"])

    disjoint = new_linear_system(12, [[2 * i, 2 * i + 1] for i in range(6)])
    for s, tau in ((projective_plane(3).system, 4), (disjoint, 6)):
        budgets.clear()
        sys.setprofile(profile)
        try:
            assert transversal_number(s).value == tau
        finally:
            sys.setprofile(None)
        assert budgets == [tau]


@pytest.mark.parametrize("q", (5, 7, 11))
def test_transversal_number_on_planes(q):
    # the disjoint-lines bound cannot prune a plane (every two lines meet),
    # so these finish in time only through the counting bound
    s = projective_plane(q).system
    cert = transversal_number(s)
    assert cert.value == q + 1
    assert cert.members == tuple(range(q + 1))
    assert is_transversal(s, cert.members)
    # optimality past the brute-force guard: no point lies on more than
    # max-degree lines, so at least n_lines / max-degree points are needed
    degrees = Counter(p for line in s.lines for p in line)
    assert math.ceil(s.n_lines / max(degrees.values())) == cert.value


@pytest.mark.parametrize(
    "q, witness", ((5, (0, 1, 6, 12, 19, 25)), (7, (0, 1, 8, 16, 25, 31, 49, 55)))
)
def test_two_packing_number_on_planes(q, witness):
    # optimality past the brute-force guard: for odd q no arc of pi:q has
    # more than q+1 points (Bose 1947), so dually no q+2 lines are free of
    # three concurrent ones
    s = projective_plane(q).system
    cert = two_packing_number(s)
    assert cert.value == q + 1
    assert cert.members == witness
    assert is_two_packing(s, cert.members)


def test_two_packing_number_named(pi3, c34, pi2):
    cert = two_packing_number(pi3)
    assert cert.value == 4 and is_two_packing(pi3, cert.members)
    assert two_packing_number(c34).value == 4
    assert two_packing_number(pi2).value == brute_force_two_packing(pi2).value == 4
    assert two_packing_number(new_linear_system(0, [])).value == 0


def test_low_degree_packs_everything():
    for seed in range(30):
        try:
            s = random_linear_system(10, 5, (2, 3), seed)
        except GenerationExhausted:
            continue
        if max_degree(s) <= 2:
            assert two_packing_number(s).value == s.n_lines


def test_certificates_match_oracle_exactly(c34, c_sys, pi2, pi3):
    for s in (c34, c_sys, pi2, pi3):
        assert transversal_number(s) == brute_force_transversal(s)
        assert two_packing_number(s) == brute_force_two_packing(s)


def test_golden_witnesses(pi2, pi3, c34, c_sys):
    # deterministic lexicographically-least witnesses, pinned as regression
    # values (the oracle-equality test proves they are lex-least)
    assert transversal_number(pi2).members == (0, 1, 2)
    assert two_packing_number(pi2).members == (0, 1, 3, 6)
    assert transversal_number(pi3).members == (0, 1, 2, 3)
    assert two_packing_number(pi3).members == (0, 1, 4, 8)
    assert transversal_number(c34).members == (0, 1, 2, 3)
    assert two_packing_number(c34).members == (0, 1, 3, 4)
    assert transversal_number(c_sys).members == (0, 1, 2, 3)
    assert two_packing_number(c_sys).members == (0, 1, 2, 3)


def test_searches_deeper_than_the_recursion_limit_are_too_large():
    # tau = nu2 = 1,200 on pairwise disjoint lines: both searches recurse
    # once per chosen point or line, past Python's default limit of 1,000
    disjoint = new_linear_system(2400, [[2 * i, 2 * i + 1] for i in range(1200)])
    for solver in (transversal_number, two_packing_number):
        with pytest.raises(TooLarge, match=f"^{solver.__name__}: .* on 1200 lines .*recursion"):
            solver(disjoint)


def test_oracle_guards():
    big = new_linear_system(25, [[i, i + 1] for i in range(0, 24, 2)])
    with pytest.raises(TooLarge):
        brute_force_transversal(big)
    with pytest.raises(TooLarge):
        brute_force_two_packing(big)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_solvers_agree_with_oracles_on_random_instances(seed):
    try:
        s = random_linear_system(8 + seed % 3, 4 + seed % 4, (2, 4), seed)
    except GenerationExhausted:
        return
    t, bt = transversal_number(s), brute_force_transversal(s)
    p, bp = two_packing_number(s), brute_force_two_packing(s)
    assert t == bt
    assert p == bp
    assert is_transversal(s, t.members)
    assert is_two_packing(s, p.members)
    if p.value >= 2 and s.n_lines > p.value:
        assert math.ceil(p.value / 2) <= t.value <= p.value * (p.value - 1) // 2
    assert (max_degree(s) <= 2) == (p.value == s.n_lines)
    if s.n_lines > 2:
        assert (t.value == 1) == (p.value == 2)


@settings(max_examples=150, deadline=None)
@given(
    n_points=st.integers(12, 16),
    n_lines=st.integers(8, 16),
    seed=st.integers(0, 100_000),
)
def test_transversal_agrees_with_oracle_at_depth(n_points, n_lines, seed):
    # tau reaches 5-7 here, so the pruning bounds act below the root too
    try:
        s = random_linear_system(n_points, n_lines, (2, 4), seed)
    except GenerationExhausted:
        return
    assert transversal_number(s) == brute_force_transversal(s)


def test_transversal_matches_branch_and_bound_past_brute_force_guard():
    # too large for brute_force_transversal: the reference finds the optimum
    # by its own search from a greedy start, so equal certificates check
    # both the value and the lexicographically least witness
    systems = [projective_plane(q).system for q in (5, 7, 11)]
    seed = 0
    while len(systems) < 23:
        try:
            systems.append(random_linear_system(30, 35, (4, 6), seed))
        except GenerationExhausted:
            pass
        seed += 1
    for s in systems:
        assert s.n_points > 20 or s.n_lines > 20
        assert transversal_number(s) == branch_and_bound_transversal(s)


@settings(max_examples=150, deadline=None)
@given(
    n_points=st.integers(12, 16),
    n_lines=st.integers(12, 16),
    seed=st.integers(0, 100_000),
)
def test_two_packing_agrees_with_oracle_at_depth(n_points, n_lines, seed):
    # nu2 is mostly 7-10 here, so the Russian-doll bound cuts below the root
    try:
        s = random_linear_system(n_points, n_lines, (2, 4), seed)
    except GenerationExhausted:
        return
    assert two_packing_number(s) == brute_force_two_packing(s)


def test_clique_number_named(pi3):
    h = three_hypergraph(pi3)
    assert clique_number_3h(h) == 4
    concurrent = new_linear_system(4, [[0, 1], [0, 2], [0, 3]])
    assert clique_number_3h(three_hypergraph(concurrent)) == 2


def test_chromatic_number_named(pi3):
    h = three_hypergraph(pi3)
    assert chromatic_number_3h(h) == 4
    concurrent = new_linear_system(5, [[0, 1], [0, 2], [0, 3], [0, 4]])
    assert chromatic_number_3h(three_hypergraph(concurrent)) == 1
    big = new_linear_system(28, [[2 * i, 2 * i + 1] for i in range(14)])
    with pytest.raises(TooLarge):
        chromatic_number_3h(three_hypergraph(big))


def test_chromatic_handles_disjoint_pairs():
    # a 2-element color class of disjoint lines has no common point, so the
    # coloring must separate them; tau = 3 here and chi must match
    s = new_linear_system(6, [(0, 2), (1, 3), (1, 4), (1, 2, 5), (3, 4, 5)])
    assert transversal_number(s).value == 3
    assert chromatic_number_3h(three_hypergraph(s)) == 3


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_hypergraph_correspondence_random(seed):
    try:
        s = random_linear_system(9, 4 + seed % 4, (2, 4), seed)
    except GenerationExhausted:
        return
    h = three_hypergraph(s)
    assert clique_number_3h(h) == two_packing_number(s).value
    assert chromatic_number_3h(h) == transversal_number(s).value
