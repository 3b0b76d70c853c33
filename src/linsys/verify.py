"""Executable claim harness.

Every structural claim the toolkit is built around is encoded as a check
over a corpus of instances (named fixtures, an exhaustive class of small
systems up to isomorphism, and seeded random systems) and produces a
:class:`ClaimReport`.  A report passes only when at least one instance was
actually checked and no counterexample survived revalidation.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, Iterable

from .core import (
    LinearSystem,
    TooLarge,
    _canonical_key,
    embeds_as_subsystem,
    max_degree,
    new_linear_system,
    three_hypergraph,
)
from .constructions import (
    GenerationExhausted,
    c34_explicit,
    c_explicit,
    enumerate_c44,
    exhaustive_small,
    projective_plane,
    random_linear_system,
)
from .files import from_instance_dict, to_instance_dict
from .planarity import (
    Graph,
    PlanarityVerdict,
    incidence_graph,
    is_planar,
    planar,
    validate_verdict,
)
from .solvers import (
    _HYPERGRAPH_MAX_VERTICES,
    brute_force_transversal,
    brute_force_two_packing,
    chromatic_number_3h,
    clique_number_3h,
    transversal_number,
    two_packing_number,
)


class HarnessError(Exception):
    """Internal inconsistency: the solver and the brute-force oracle disagree
    on a reported counterexample, so the counterexample cannot be trusted."""


@dataclass
class ClaimReport:
    claim_id: str
    statement: str
    instances_checked: int = 0
    counterexamples: list[dict] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return self.instances_checked > 0 and not self.counterexamples

    def to_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "statement": self.statement,
            "instances_checked": self.instances_checked,
            "counterexamples": self.counterexamples,
            "wall_time": round(self.wall_time, 4),
            "passed": self.passed,
        }


class Instance:
    """A named system plus cached derived data shared across checks."""

    def __init__(self, name: str, system: LinearSystem):
        self.name = name
        self.system = system

    @cached_property
    def tau(self) -> int:
        return transversal_number(self.system).value

    @cached_property
    def nu2(self) -> int:
        return two_packing_number(self.system).value

    @cached_property
    def delta(self) -> int:
        return max_degree(self.system)

    @property
    def n_lines(self) -> int:
        return self.system.n_lines

    @cached_property
    def graph(self) -> Graph:
        return incidence_graph(self.system)

    @cached_property
    def planar(self) -> bool:
        if "verdict" in self.__dict__:  # decided already, with its certificate
            return self.verdict.planar
        return planar(self.graph)

    @cached_property
    def verdict(self) -> PlanarityVerdict:
        """Planarity with its certificate; :attr:`planar` is cheaper where
        only the answer is needed."""
        return is_planar(self.graph)

    @cached_property
    def key(self) -> tuple:
        return _canonical_key(self.system)

    def to_dict(self) -> dict:
        return to_instance_dict(self.system, name=self.name)


def _revalidated_counterexample(inst: Instance, description: str) -> dict:
    """Serialize a violating instance, reload it and recompute both numbers
    through the solver and, within guards, the brute-force oracle.  Disagreeing
    routes indicate a solver bug and abort the run instead of reporting."""
    doc = inst.to_dict()
    reloaded = from_instance_dict(doc)
    tau = transversal_number(reloaded).value
    nu2 = two_packing_number(reloaded).value
    try:
        if brute_force_transversal(reloaded).value != tau:
            raise HarnessError(f"transversal solver/oracle mismatch on {inst.name}")
        if brute_force_two_packing(reloaded).value != nu2:
            raise HarnessError(f"2-packing solver/oracle mismatch on {inst.name}")
    except TooLarge:
        pass  # past the oracles' size guard: the solver values stand
    return {
        "instance": doc,
        "tau": tau,
        "nu2": nu2,
        "max_degree": max_degree(reloaded),
        "violation": description,
    }


@dataclass(frozen=True)
class Claim:
    """One claim of the paper as a check over instances.

    ``applies`` selects the instances the claim counts, and ``violations``
    yields one description per broken clause.  ``extremal``, when set, is
    checked on every system of :func:`_equality_family` ahead of the
    corpus, with no filter.  Both read :class:`Instance`'s lazy properties,
    so the order of their conditions decides what gets computed.
    """

    claim_id: str
    statement: str
    applies: Callable[[Instance], bool]
    violations: Callable[[Instance], Iterable[str]]
    extremal: Callable[[Instance], Iterable[str]] | None = None


@cache
def _equality_family() -> tuple[Instance, ...]:
    """The systems attaining tau = nu2 = 4: c34 and the c44 family.

    Built once per process, so the verdicts and canonical keys cached on
    these instances are computed once, not once per :func:`run_all`.
    """
    c44 = (Instance(ns.name, ns.system) for ns in enumerate_c44())
    return (Instance("c34", c34_explicit().system), *c44)


def _classification_violations(inst: Instance) -> list[str]:
    if inst.tau > 4:
        return [f"nu2=4 but tau={inst.tau}"]
    if inst.tau < 4:
        return []
    if embeds_as_subsystem(inst.system, projective_plane(3).system) is None:
        return ["tau=nu2=4 but no embedding into the order-3 plane"]
    if inst.key not in {f.key for f in _equality_family()}:
        return ["tau=nu2=4 but not isomorphic to a known extremal system"]
    return []


def _hypergraph_violations(inst: Instance) -> list[str]:
    h = three_hypergraph(inst.system)
    omega = clique_number_3h(h)
    chi = chromatic_number_3h(h)
    if omega != inst.nu2 or chi != inst.tau:
        return [f"clique={omega} vs nu2={inst.nu2}, chromatic={chi} vs tau={inst.tau}"]
    return []


def _extremal_planarity_violations(inst: Instance) -> list[str]:
    # the verdict is cached on the family's instances; its check (well under
    # a millisecond) runs every time, so a tampered verdict is still caught
    if inst.verdict.planar:
        return ["extremal system has planar incidence graph"]
    if not validate_verdict(inst.graph, inst.verdict):
        return ["extremal system's Kuratowski witness fails validation"]
    return []


def _sandwich_violations(inst: Instance) -> list[str]:
    lo = math.ceil(inst.nu2 / 2)
    hi = inst.nu2 * (inst.nu2 - 1) // 2
    if lo <= inst.tau <= hi:
        return []
    return [f"tau={inst.tau} outside [{lo}, {hi}] for nu2={inst.nu2}"]


def _claims() -> tuple[Claim, ...]:
    """Every claim, in report order."""
    return (
        Claim(
            "full-packing-iff-max-degree-2",
            "The maximum point degree is at most 2 exactly when the whole line "
            "family is a 2-packing (nu2 equals the number of lines).",
            lambda i: True,
            lambda i: [] if (i.delta <= 2) == (i.nu2 == i.n_lines)
            else [f"max degree {i.delta} but nu2={i.nu2} of {i.n_lines} lines"],
        ),
        Claim(
            "nu2-2-iff-tau-1",
            "With more than two lines: nu2 = 2 forces a single point meeting every "
            "line (tau = 1), and conversely tau = 1 forces nu2 = 2.",
            lambda i: i.n_lines > 2 and (i.nu2 == 2 or i.tau == 1),
            lambda i: [] if (i.nu2 == 2) == (i.tau == 1)
            else [f"nu2=2 but tau={i.tau}" if i.nu2 == 2 else f"tau=1 but nu2={i.nu2}"],
        ),
        Claim(
            "nu2-3-forces-tau-2",
            "With more than three lines, nu2 = 3 forces tau = 2.",
            lambda i: i.nu2 == 3 and i.n_lines > 3,
            lambda i: [] if i.tau == 2 else [f"nu2=3, {i.n_lines} lines, tau={i.tau}"],
        ),
        Claim(
            "nu2-4-delta-ge-5-tau-le-3",
            "nu2 = 4 together with a point of degree at least 5 forces tau <= 3.",
            lambda i: i.nu2 == 4 and i.delta >= 5,
            lambda i: [] if i.tau <= 3 else [f"nu2=4, delta={i.delta}, tau={i.tau}"],
        ),
        Claim(
            "nu2-4-tau-le-4-extremal-classification",
            "With more than four lines, nu2 = 4 forces tau <= 4; every system "
            "attaining tau = 4 embeds in the order-3 projective plane and is "
            "isomorphic to the 8/8 extremal system or to a member of the "
            "enumerated c44 family.",
            lambda i: i.nu2 == 4 and i.n_lines > 4,
            _classification_violations,
        ),
        Claim(
            "planar-nu2-234-tau-strictly-below",
            "Every system whose incidence graph is planar, with nu2 in {2,3,4} and "
            "more lines than nu2, satisfies tau <= nu2 - 1; the systems attaining "
            "tau = nu2 = 4 all have non-planar incidence graphs.",
            # planarity last: no other claim needs it, so it is decided only
            # for instances the cached solver values let through
            lambda i: i.nu2 in (2, 3, 4) and i.n_lines > i.nu2 and i.planar,
            lambda i: [] if i.tau <= i.nu2 - 1
            else [f"planar incidence graph, nu2={i.nu2}, tau={i.tau}"],
            extremal=_extremal_planarity_violations,
        ),
        Claim(
            "three-hypergraph-correspondence",
            "On the 3-hypergraph whose vertices are the lines and whose edges are "
            "the triples with empty intersection: the clique number equals nu2 and "
            "the chromatic number equals tau (checked within the small-instance "
            "guard).",
            lambda i: 3 <= i.n_lines <= _HYPERGRAPH_MAX_VERTICES,
            _hypergraph_violations,
        ),
        Claim(
            "tau-nu2-sandwich",
            "For nu2 >= 2 and more lines than nu2: ceil(nu2 / 2) <= tau <= "
            "nu2 * (nu2 - 1) / 2.",
            lambda i: i.nu2 >= 2 and i.n_lines > i.nu2,
            _sandwich_violations,
        ),
    )


def _run(claim: Claim, instances: list[Instance]) -> ClaimReport:
    rep = ClaimReport(claim_id=claim.claim_id, statement=claim.statement)
    t0 = time.perf_counter()
    extremal = [(inst, claim.extremal) for inst in _equality_family()] if claim.extremal else []
    corpus = ((inst, claim.violations) for inst in instances if claim.applies(inst))
    for inst, violations in itertools.chain(extremal, corpus):
        rep.instances_checked += 1
        for description in violations(inst):
            rep.counterexamples.append(_revalidated_counterexample(inst, description))
    rep.wall_time = time.perf_counter() - t0
    return rep


# ---------------------------------------------------------------------------
# instance corpus
# ---------------------------------------------------------------------------

def fixture_instances() -> list[Instance]:
    """The named systems plus small handcrafted shapes exercising each claim.

    c34 and the c44 members are the :func:`_equality_family` instances, so
    their cached values are shared with the extremal checks.
    """
    c34, *c44 = _equality_family()
    star5 = [[0, i] for i in range(1, 6)]
    return [
        Instance("pi:2", projective_plane(2).system),
        Instance("pi:3", projective_plane(3).system),
        c34,
        Instance("c", c_explicit().system),
        Instance("pi:5", projective_plane(5).system),
        *c44,
        # stars: concurrent lines, pairwise disjoint off the center
        Instance("star-4", new_linear_system(5, [[0, i] for i in range(1, 5)])),
        Instance("star-5", new_linear_system(11, [[0, 2 * i - 1, 2 * i] for i in range(1, 6)])),
        # a five-line star plus two lines off the center that miss or meet
        Instance("star5-plus-disjoint-pair", new_linear_system(8, star5 + [[1, 2, 6], [3, 4, 7]])),
        Instance("star5-plus-meeting-pair", new_linear_system(7, star5 + [[1, 2, 6], [3, 4, 6]])),
        Instance("two-disjoint-lines", new_linear_system(6, [[0, 1, 2], [3, 4, 5]])),
        Instance("triangle", new_linear_system(3, [[0, 1], [0, 2], [1, 2]])),
        # nu2 = 3 with four lines: a triangle plus one tail through a vertex
        Instance("triangle-with-tail", new_linear_system(4, [[0, 1], [0, 2], [1, 2], [0, 3]])),
        # 2-regular, so the whole line set is a 2-packing
        Instance("hexagon-cycle", new_linear_system(6, [[i, (i + 1) % 6] for i in range(6)])),
    ]


# profile choice matters: (9, 7, (3, 4)) yields nu2 = 4 on roughly a quarter
# of the seeds, which keeps the packing-4 claims exercised by random data
_RANDOM_PROFILES = (
    (6, 4, (2, 3)),
    (7, 5, (2, 3)),
    (8, 6, (2, 4)),
    (9, 6, (3, 4)),
    (10, 7, (2, 4)),
    (9, 7, (3, 4)),
    (9, 8, (3, 4)),
    (12, 9, (2, 3)),
)


def random_instances(seed: int, count: int) -> list[Instance]:
    """Deterministic sweep instances cycling through size profiles.  A draw
    that raises :class:`GenerationExhausted` is skipped, whether no line of
    its size range fit next to the accepted ones (the usual case: all 55
    skips over seeds 1000-1023 at 50 instances each) or the rejection
    budget ran out."""
    out = []
    attempt = 0
    while len(out) < count:
        n_points, n_lines, sizes = _RANDOM_PROFILES[attempt % len(_RANDOM_PROFILES)]
        sub_seed = seed * 1_000_003 + attempt
        attempt += 1
        try:
            sys = random_linear_system(n_points, n_lines, sizes, sub_seed)
        except GenerationExhausted:
            continue
        out.append(Instance(f"random-{sub_seed}", sys))
    return out


# ---------------------------------------------------------------------------
# top-level run
# ---------------------------------------------------------------------------

@dataclass
class VerifyConfig:
    seed: int = 7
    n_random: int = 200
    exhaustive_bounds: tuple[int, int] | None = (8, 5)
    include_fixtures: bool = True


def run_all(config: VerifyConfig | None = None) -> list[ClaimReport]:
    """Execute every claim check over the configured corpus; deterministic
    for a fixed configuration."""
    config = config or VerifyConfig()
    instances: list[Instance] = []
    if config.include_fixtures:
        instances.extend(fixture_instances())
    if config.exhaustive_bounds is not None:
        mp, ml = config.exhaustive_bounds
        for i, sys in enumerate(exhaustive_small(mp, ml)):
            instances.append(Instance(f"exhaustive-{i}", sys))
    if config.n_random > 0:
        instances.extend(random_instances(config.seed, config.n_random))
    return [_run(claim, instances) for claim in _claims()]


_REPORT_PREFACE = (
    "Straight-line representability cannot be decided directly at this "
    "scale; the harness instead checks the strict bound on every instance "
    "whose incidence graph is planar, and separately certifies that the "
    "equality family is non-planar. Planarity is only a proxy: it is not a "
    "necessary condition, since the 3x3 grid is a straight-line system with "
    "a non-planar incidence graph."
)


def reports_to_json(reports: list[ClaimReport]) -> str:
    doc = {
        "preface": _REPORT_PREFACE,
        "claims": [r.to_dict() for r in reports],
        "all_passed": all(r.passed for r in reports),
    }
    return json.dumps(doc, indent=2)


def reports_to_markdown(reports: list[ClaimReport]) -> str:
    lines = [
        "# Claim verification report",
        "",
        _REPORT_PREFACE,
        "",
        "| claim | instances | counterexamples | time (s) | result |",
        "|---|---|---|---|---|",
    ]
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        lines.append(
            f"| {r.claim_id} | {r.instances_checked} | "
            f"{len(r.counterexamples)} | {r.wall_time:.2f} | {status} |"
        )
    lines.append("")
    for r in reports:
        lines.append(f"## {r.claim_id}")
        lines.append("")
        lines.append(r.statement)
        lines.append("")
        if not r.passed:
            if r.instances_checked == 0:
                lines.append("No instance matched the claim filter: harness failure.")
            for ce in r.counterexamples:
                lines.append(f"- counterexample: `{json.dumps(ce)}`")
            lines.append("")
    return "\n".join(lines)
