import itertools

import pytest

from linsys import (
    NamedSystem,
    TooLarge,
    canonical_relabel,
    exhaustive_small,
    induced_subsystem,
    new_linear_system,
    projective_plane,
    run_all,
    zykov_planar,
)
from linsys import verify
from linsys.verify import (
    Instance,
    VerifyConfig,
    _revalidated_counterexample,
    fixture_instances,
    random_instances,
    reports_to_json,
    reports_to_markdown,
)


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


def test_exhaustive_small_guards():
    with pytest.raises(TooLarge):
        exhaustive_small(10, 5)
    with pytest.raises(TooLarge):
        exhaustive_small(9, 8)


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


def test_counterexample_revalidation_roundtrip():
    inst = Instance("probe", new_linear_system(4, [[0, 1], [1, 2], [2, 3]]))
    ce = _revalidated_counterexample(inst, "probe record")
    assert ce["violation"] == "probe record"
    assert ce["tau"] == 2 and ce["nu2"] == 3
    assert ce["instance"]["lines"] == [[0, 1], [1, 2], [2, 3]]


def _pinned(name, system, tau, nu2, planar):
    inst = Instance(name, system)
    inst.__dict__.update(tau=tau, nu2=nu2, planar=planar)
    return inst


def test_forced_violations_per_claim(monkeypatch):
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
