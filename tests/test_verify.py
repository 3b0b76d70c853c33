import dataclasses
import itertools

import pytest

from linsys import (
    NamedSystem,
    PlanarityVerdict,
    TooLarge,
    canonical_relabel,
    exhaustive_small,
    induced_subsystem,
    new_linear_system,
    projective_plane,
    run_all,
    zykov_planar,
)
from linsys import constructions, planarity, verify
from linsys.constructions import GenerationExhausted
from linsys.verify import (
    Instance,
    VerifyConfig,
    _revalidated_counterexample,
    fixture_instances,
    random_instances,
    reports_to_json,
    reports_to_markdown,
)

from _oracles import brute_automorphisms, orderly_exhaustive_small


def test_exhaustive_small_three_point_graphs():
    out = exhaustive_small(3, 3, (2, 2))
    # empty, one edge, path, triangle
    assert len(out) == 4


def test_exhaustive_small_two_uniform_matches_known_graph_counts():
    out = exhaustive_small(8, 4, (2, 2))
    # graphs with 0..4 edges and no isolated vertices, up to isomorphism
    by_lines = {}
    for s in out:
        by_lines.setdefault(s.n_lines, 0)
        by_lines[s.n_lines] += 1
    assert by_lines == {0: 1, 1: 1, 2: 2, 3: 5, 4: 11}


def test_exhaustive_small_no_isomorphic_duplicates():
    out = exhaustive_small(6, 4, (2, 3))
    # each class comes back as its own canonical representative
    assert all(canonical_relabel(s) == s for s in out)
    keys = [(s.n_points, s.lines) for s in out]
    assert len(keys) == len(set(keys))
    assert all(s.n_points == len({p for l in s.lines for p in l}) for s in out)
    # candidates skip validation, so check each class passes it unchanged
    assert all(new_linear_system(s.n_points, s.lines) == s for s in out)


def _classes(systems):
    return [(s.n_points, s.lines) for s in systems]


@pytest.mark.parametrize("size_range", [(1, 3), (2, 2), (2, 4)])
def test_exhaustive_small_matches_unpruned_reference(size_range):
    # orbit pruning skips only extensions isomorphic to earlier ones: the
    # same classes in the same order, at every bound up to (7, 5)
    for max_points in range(8):
        for max_lines in range(6):
            got = exhaustive_small(max_points, max_lines, size_range)
            want = orderly_exhaustive_small(max_points, max_lines, size_range)
            assert _classes(got) == _classes(want), (max_points, max_lines)


def test_exhaustive_small_matches_unpruned_reference_at_benchmark_bound():
    got = exhaustive_small(8, 6)
    assert len(got) == 3272
    assert _classes(got) == _classes(orderly_exhaustive_small(8, 6))


def test_default_verify_corpus():
    # the default `linsys verify` run: the fixtures, exhaustive_small(8, 5)
    # and 200 random systems of seed 7
    reports = run_all(VerifyConfig())
    assert all(r.passed for r in reports)
    assert [(r.claim_id, r.instances_checked) for r in reports] == [
        ("full-packing-iff-max-degree-2", 1151),
        ("nu2-2-iff-tau-1", 20),
        ("nu2-3-forces-tau-2", 153),
        ("nu2-4-delta-ge-5-tau-le-3", 2),
        ("nu2-4-tau-le-4-extremal-classification", 540),
        ("planar-nu2-234-tau-strictly-below", 673),
        ("three-hypergraph-correspondence", 1133),
        ("tau-nu2-sandwich", 824),
    ]


def test_exhaustive_small_is_one_object():
    # the generator lives in constructions; the package and the harness re-export it
    assert exhaustive_small is verify.exhaustive_small is constructions.exhaustive_small


def test_exhaustive_small_tries_one_point_set_per_orbit(monkeypatch):
    # the candidates formed are exactly the unpruned ones whose reused point
    # set is the least of its orbit under the parent's automorphisms, found
    # here by trying every permutation
    tried = []

    def record(*args):
        for cand, newline in extensions(*args):
            tried.append((cand.n_points, cand.lines))
            yield cand, newline

    extensions = constructions._extensions
    monkeypatch.setattr(constructions, "_extensions", record)
    exhaustive_small(6, 4)
    want = []
    for sys in orderly_exhaustive_small(6, 3):
        n, autos = sys.n_points, brute_automorphisms(sys)
        cap = len(sys.lines[0]) if sys.lines else 4
        for size in range(2, min(cap, 4) + 1):
            for reuse in range(min(size, n) + 1):
                fresh = size - reuse
                for base in itertools.combinations(range(n), reuse):
                    newline = base + tuple(range(n, n + fresh))
                    if n + fresh > 6 or (fresh == 0 and newline in sys.lines):
                        continue
                    if any(len(set(base) & set(line)) > 1 for line in sys.lines):
                        continue
                    if min(tuple(sorted(g[p] for p in base)) for g in autos) == base:
                        want.append((n + fresh, sys.lines + (newline,)))
    assert tried == want


SEARCHES = {
    ((6, 4), (2, 4)): 79, ((7, 5), (2, 4)): 420, ((8, 6), (2, 4)): 3271,
    ((7, 5), (1, 3)): 914, ((8, 5), (2, 2)): 43,
}


@pytest.mark.parametrize("bounds, size_range", list(SEARCHES))
def test_exhaustive_small_searches_once_per_class(monkeypatch, bounds, size_range):
    # canonical augmentation rejects every extension that is not its class's
    # canonical one before searching it: one search per non-empty class, and
    # the counts are pinned so that no change adds searches unseen
    searched = []

    def record(cand, colors=None):
        searched.append(cand)
        return search(cand, colors)

    search = constructions._canonical_search
    monkeypatch.setattr(constructions, "_canonical_search", record)
    out = exhaustive_small(*bounds, size_range)
    assert len(searched) == len(out) - 1 == SEARCHES[bounds, size_range]


def test_exhaustive_small_guards():
    with pytest.raises(TooLarge):
        exhaustive_small(10, 5)
    with pytest.raises(TooLarge):
        exhaustive_small(9, 8)
    for bounds in ((4, -3), (-1, 2), (4, 2.5), (4.0, 2), (True, 2)):
        with pytest.raises(GenerationExhausted):
            exhaustive_small(*bounds)
    for sizes in ((0, 2), (3, 2), (2.5, 3), (2, "4"), (1, 2, 3), (2,), None, 5):
        with pytest.raises(GenerationExhausted):
            exhaustive_small(4, 2, sizes)
    assert exhaustive_small(0, 0) == [new_linear_system(0, [])]


def test_run_all_passes_and_is_deterministic():
    config = VerifyConfig(seed=3, n_random=40, exhaustive_bounds=(6, 4))
    reports = run_all(config)
    assert all(r.passed for r in reports)
    assert [(r.claim_id, r.instances_checked) for r in reports] == [
        ("full-packing-iff-max-degree-2", 141),
        ("nu2-2-iff-tau-1", 8),
        ("nu2-3-forces-tau-2", 28),
        ("nu2-4-delta-ge-5-tau-le-3", 2),
        ("nu2-4-tau-le-4-extremal-classification", 26),
        ("planar-nu2-234-tau-strictly-below", 53),
        ("three-hypergraph-correspondence", 126),
        ("tau-nu2-sandwich", 83),
    ]
    again = run_all(VerifyConfig(seed=3, n_random=40, exhaustive_bounds=(6, 4)))
    assert [(r.claim_id, r.instances_checked, r.counterexamples) for r in reports] == [
        (r.claim_id, r.instances_checked, r.counterexamples) for r in again
    ]
    other_seed = run_all(VerifyConfig(seed=8, n_random=40, exhaustive_bounds=(6, 4)))
    assert [r.passed for r in other_seed] == [r.passed for r in reports]


def test_fixtures_only_config_passes():
    reports = run_all(VerifyConfig(n_random=0, exhaustive_bounds=None))
    assert all(r.passed for r in reports)


def test_empty_corpus_is_a_harness_failure():
    reports = run_all(
        VerifyConfig(seed=1, n_random=0, exhaustive_bounds=None, include_fixtures=False)
    )
    assert any(r.instances_checked == 0 and not r.passed for r in reports)


def test_report_rendering():
    reports = run_all(VerifyConfig(seed=2, n_random=10, exhaustive_bounds=None))
    js = reports_to_json(reports)
    md = reports_to_markdown(reports)
    for r in reports:
        assert r.claim_id in js and r.claim_id in md
    assert '"all_passed": true' in js


def test_fixture_corpus_contents():
    names = {inst.name for inst in fixture_instances()}
    assert {"pi:2", "pi:3", "pi:5", "c34", "c"} <= names
    assert any(n.startswith("c44:") for n in names)


def test_fixture_corpus_shares_the_equality_family():
    """c34 and the c44 members are the family's own instances, in the
    order c34, c, pi:5, then the members."""
    fixtures = fixture_instances()
    family = verify._equality_family()
    assert [inst.name for inst in fixtures[:5]] == ["pi:2", "pi:3", "c34", "c", "pi:5"]
    assert fixtures[2] is family[0]
    assert all(a is b for a, b in zip(fixtures[5:13], family[1:], strict=True))
    assert not fixtures[13].name.startswith("c44:")


def test_counterexample_revalidation_roundtrip():
    inst = Instance("probe", new_linear_system(4, [[0, 1], [1, 2], [2, 3]]))
    ce = _revalidated_counterexample(inst, "probe record")
    assert ce["violation"] == "probe record"
    assert ce["tau"] == 2 and ce["nu2"] == 3
    assert ce["instance"]["lines"] == [[0, 1], [1, 2], [2, 3]]


def test_counterexample_revalidation_past_the_oracle_guard(monkeypatch, pi5):
    # pi:5 has 31 points and lines, past the brute-force oracles' 20 x 20 guard
    outcomes = []

    def recorded(oracle):
        def call(sys):
            try:
                return oracle(sys)
            except TooLarge:
                outcomes.append("too large")
                raise
        return call

    for name in ("brute_force_transversal", "brute_force_two_packing"):
        monkeypatch.setattr(verify, name, recorded(getattr(verify, name)))
    ce = _revalidated_counterexample(Instance("pi:5", pi5), "probe record")
    assert (ce["tau"], ce["nu2"]) == (6, 6)
    assert outcomes == ["too large"]  # no oracle searched


@pytest.mark.parametrize("solver, what", [("transversal_number", "transversal"),
                                          ("two_packing_number", "2-packing")])
def test_counterexample_revalidation_catches_a_wrong_solver(monkeypatch, solver, what):
    real = getattr(verify, solver)
    monkeypatch.setattr(verify, solver, lambda s: dataclasses.replace(real(s), value=real(s).value + 1))
    inst = Instance("probe", new_linear_system(4, [[0, 1], [1, 2], [2, 3]]))
    with pytest.raises(verify.HarnessError, match=f"^{what} solver/oracle mismatch on probe$"):
        _revalidated_counterexample(inst, "probe record")


def _pinned(name, system, tau, nu2, planar):
    inst = Instance(name, system)
    inst.__dict__.update(tau=tau, nu2=nu2, planar=planar)
    return inst


@pytest.fixture
def fresh_family():
    """Build the cached equality family anew for the test, and drop it
    after, so that a family built from patched constructions does not
    outlive the test."""
    verify._equality_family.cache_clear()
    yield
    verify._equality_family.cache_clear()


def test_forced_violations_per_claim(monkeypatch, fresh_family):
    """Pinned tau, nu2 and planarity values break every clause of every
    claim; each claim must count and describe exactly these violations."""
    hexagon = new_linear_system(6, [[i, (i + 1) % 6] for i in range(6)])
    star5 = new_linear_system(11, [[0, 2 * i + 1, 2 * i + 2] for i in range(5)])
    star4 = new_linear_system(5, [[0, i] for i in range(1, 5)])
    k5 = new_linear_system(5, itertools.combinations(range(5), 2))
    five_plane_lines = induced_subsystem(projective_plane(3).system, range(5))[0]
    corpus = [
        _pinned("cycle", hexagon, tau=3, nu2=5, planar=False),
        _pinned("star5", star5, tau=5, nu2=4, planar=True),
        _pinned("tail", new_linear_system(4, [[0, 1], [0, 2], [1, 2], [0, 3]]), 4, 4, False),
        _pinned("triangle", new_linear_system(3, [[0, 1], [0, 2], [1, 2]]), 2, 2, False),
        _pinned("star4", star4, tau=1, nu2=3, planar=True),
        _pinned("k5", k5, tau=4, nu2=4, planar=False),
        _pinned("plane-lines", five_plane_lines, tau=4, nu2=4, planar=False),
    ]
    monkeypatch.setattr(verify, "fixture_instances", lambda: corpus)
    # a planar stand-in for c34 breaks the extremal clause of the planar claim
    monkeypatch.setattr(verify, "c34_explicit", lambda: NamedSystem("c34", hexagon))
    reports = run_all(VerifyConfig(n_random=0, exhaustive_bounds=None))
    got = [
        (r.claim_id, r.instances_checked, [ce["violation"] for ce in r.counterexamples])
        for r in reports
    ]
    assert got == [
        ("full-packing-iff-max-degree-2", 7, [
            "max degree 2 but nu2=5 of 6 lines",
            "max degree 3 but nu2=4 of 4 lines",
            "max degree 2 but nu2=2 of 3 lines",
        ]),
        ("nu2-2-iff-tau-1", 2, ["nu2=2 but tau=2", "tau=1 but nu2=3"]),
        ("nu2-3-forces-tau-2", 1, ["nu2=3, 4 lines, tau=1"]),
        ("nu2-4-delta-ge-5-tau-le-3", 1, ["nu2=4, delta=5, tau=5"]),
        ("nu2-4-tau-le-4-extremal-classification", 3, [
            "nu2=4 but tau=5",
            "tau=nu2=4 but no embedding into the order-3 plane",
            "tau=nu2=4 but not isomorphic to a known extremal system",
        ]),
        # c34's stand-in and the 8 c44 members count whatever their nu2
        ("planar-nu2-234-tau-strictly-below", 11, [
            "extremal system has planar incidence graph",
            "planar incidence graph, nu2=4, tau=5",
        ]),
        ("three-hypergraph-correspondence", 7, [
            "clique=6 vs nu2=5, chromatic=3 vs tau=3",
            "clique=2 vs nu2=4, chromatic=1 vs tau=5",
            "clique=3 vs nu2=4, chromatic=2 vs tau=4",
            "clique=3 vs nu2=2, chromatic=2 vs tau=2",
            "clique=2 vs nu2=3, chromatic=1 vs tau=1",
            "clique=5 vs nu2=4, chromatic=4 vs tau=4",
            "clique=3 vs nu2=4, chromatic=2 vs tau=4",
        ]),
        ("tau-nu2-sandwich", 6, [
            "tau=2 outside [1, 1] for nu2=2",
            "tau=1 outside [2, 3] for nu2=3",
        ]),
    ]


def test_instance_planar_matches_zykov_planar():
    instances = random_instances(3, 200)
    assert [i.planar for i in instances] == [
        zykov_planar(i.system).planar for i in instances
    ]
    assert {i.planar for i in instances} == {True, False}


def test_extremal_witnesses_are_validated(monkeypatch):
    """The planar claim keeps each extremal system's Kuratowski witness and
    checks it; a rejected witness is a counterexample."""
    monkeypatch.setattr(verify, "validate_verdict", lambda g, v: False)
    reports = run_all(
        VerifyConfig(n_random=0, exhaustive_bounds=None, include_fixtures=False)
    )
    (planar,) = [r for r in reports if r.claim_id == "planar-nu2-234-tau-strictly-below"]
    assert planar.instances_checked == 9
    assert [(ce["instance"]["name"], ce["violation"]) for ce in planar.counterexamples] == [
        (name, "extremal system's Kuratowski witness fails validation")
        for name in ["c34"] + [f"c44:{k}" for k in range(8)]
    ]


_PLANAR_CLAIM = "planar-nu2-234-tau-strictly-below"


def _triples(reports):
    return [(r.claim_id, r.instances_checked, r.counterexamples) for r in reports]


def test_equality_family_is_built_once_per_process(fresh_family):
    config = VerifyConfig(seed=21, n_random=50, exhaustive_bounds=None, include_fixtures=False)
    first = run_all(config)
    family = verify._equality_family()
    assert [inst.name for inst in family] == ["c34"] + [f"c44:{k}" for k in range(8)]
    # the first run left each member's verdict cached on it
    assert all("verdict" in inst.__dict__ for inst in family)
    second = run_all(config)
    assert verify._equality_family() is family
    verify._equality_family.cache_clear()
    third = run_all(config)
    assert verify._equality_family() is not family
    assert _triples(first) == _triples(second) == _triples(third)
    # every run still counts the 9 family systems in the planar claim
    claim = next(c for c in verify._claims() if c.claim_id == _PLANAR_CLAIM)
    in_corpus = sum(map(claim.applies, random_instances(21, 50)))
    for reports in (first, second, third):
        (planar,) = [r for r in reports if r.claim_id == _PLANAR_CLAIM]
        assert planar.instances_checked == 9 + in_corpus


def test_instance_builds_its_graph_once(monkeypatch, fresh_family):
    built = []
    build = verify.incidence_graph

    def counting(system):
        built.append(system)
        return build(system)

    monkeypatch.setattr(verify, "incidence_graph", counting)
    config = VerifyConfig(n_random=0, exhaustive_bounds=None, include_fixtures=False)
    run_all(config)
    run_all(config)
    family = verify._equality_family()
    for inst in family:
        assert inst.planar is inst.verdict.planar is False
    assert built == [inst.system for inst in family]
    inst = Instance("disjoint", new_linear_system(6, [[0, 1, 2], [3, 4, 5]]))
    assert inst.planar and inst.verdict.planar
    assert built[-1] is inst.system and len(built) == len(family) + 1


def test_instance_planar_reads_a_cached_verdict(monkeypatch):
    # the planar claim reads each family member's verdict, then its planar
    # answer; the answer comes from the verdict, not from networkx again
    calls = []
    check = planarity.nx.check_planarity

    def counting(*args, **kwargs):
        calls.append(1)
        return check(*args, **kwargs)

    monkeypatch.setattr(planarity.nx, "check_planarity", counting)
    for member in verify._equality_family():
        inst = Instance(member.name, member.system)
        inst.verdict
        decided = len(calls)
        assert inst.planar is inst.verdict.planar is False
        assert len(calls) == decided


@pytest.mark.parametrize("tamper", ["planar", "witness"])
def test_tampered_cached_verdict_is_a_counterexample(monkeypatch, tamper):
    """A cached verdict is checked again on every run, so one that turns
    planar or loses a witness path after it was cached is still caught."""
    target = verify._equality_family()[3]
    verdict = target.verdict
    if tamper == "planar":
        bad = PlanarityVerdict(planar=True)
        want = "extremal system has planar incidence graph"
    else:
        short = dataclasses.replace(verdict.witness, paths=verdict.witness.paths[1:])
        bad = dataclasses.replace(verdict, witness=short)
        want = "extremal system's Kuratowski witness fails validation"
    monkeypatch.setitem(target.__dict__, "verdict", bad)
    reports = run_all(VerifyConfig(n_random=0, exhaustive_bounds=None, include_fixtures=False))
    (planar,) = [r for r in reports if r.claim_id == _PLANAR_CLAIM]
    assert planar.instances_checked == 9
    assert [(ce["instance"]["name"], ce["violation"]) for ce in planar.counterexamples] == [
        ("c44:2", want)
    ]
