"""The benchmark's three workloads, built from a seed.

Each workload is a list of ops: one call into linsys's public API, made the
way the CLI subcommands make it.  An op's result is reduced to a small
digest right after the call, outside its timed region, and the digest is
checked against an independently computed reference once the measurement
is over.  Ops call through the ``linsys`` package attributes at call time,
so traced runs see the wrapped functions.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable, Optional

import linsys
import linsys.verify

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

# workload sizes; the seed changes the inputs, not their number
BATCHES = 24             # verify-random: run_all calls per pass
BATCH_SIZE = 50          # random systems per run_all call
EXHAUSTIVE = (8, 6)      # classify: 3272 classes
EXHAUSTIVE_CLASSES = 3272
C44_CLASSES = 8
RELABELINGS = 16         # classify: relabelings per c44 member and verdict
ISO_REPEAT = 4           # classify: runs per pass of each is_isomorphic op
SMALL_REPEAT = 6         # solve: runs per pass of the small-system ops
RANDOM_SYSTEMS = 8       # solve: seeded random systems
RANDOM_SHAPE = (30, 35, (4, 6))
REF_RELABEL_SEED = 1     # fixed labeling the canonical references use


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    digest: Callable[[object], object]
    check: Callable[[object], Optional[str]]
    prepare: Optional[Callable[[], None]] = None
    once: bool = False      # run in the first pass only
    repeat: int = 1         # runs per pass, in rounds, for ops of milliseconds


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pass_budget_s: float    # a pass still running after this fails its ops
    build: Callable[[int], list[Op]]


def warm() -> None:
    """Fill the lru_cached constructions the workloads and the harness use,
    and let networkx finish its lazy imports on one planarity verdict."""
    for q in (2, 3, 5, 7):
        linsys.projective_plane(q)
    linsys.zykov_planar(linsys.c34_explicit().system)
    linsys.c_explicit()
    linsys.enumerate_c44()


def _expect(got, want, what: str) -> Optional[str]:
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


# ---------------------------------------------------------------------------
# verify-random
# ---------------------------------------------------------------------------

def build_verify_random(seed: int) -> list[Op]:
    @cache
    def expected(batch_seed: int) -> dict[str, int]:
        systems = [i.system for i in linsys.verify.random_instances(batch_seed, BATCH_SIZE)]
        return ref.claim_counts(systems, 1 + len(linsys.enumerate_c44()))

    def check(batch_seed: int, got) -> Optional[str]:
        want = expected(batch_seed)
        if {c for c, _, _ in got} != set(want):
            return f"claims {sorted(c for c, _, _ in got)} differ from {sorted(want)}"
        for claim, checked, counterexamples in got:
            if counterexamples:
                return f"{claim}: {counterexamples} counterexamples"
            if checked != want[claim]:
                return f"{claim}: checked {checked} instances, reference {want[claim]}"
        return None

    ops = []
    for i in range(BATCHES):
        batch_seed = seed * 1000 + i
        ops.append(Op(
            f"run_all random={BATCH_SIZE} seed={batch_seed}",
            lambda s=batch_seed: linsys.run_all(linsys.VerifyConfig(
                seed=s, n_random=BATCH_SIZE, exhaustive_bounds=None,
                include_fixtures=False,
            )),
            lambda reports: tuple(
                (r.claim_id, r.instances_checked, len(r.counterexamples)) for r in reports
            ),
            lambda got, s=batch_seed: check(s, got),
        ))
    return ops


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def _labels(systems) -> tuple[bytes, ...]:
    return tuple(sorted(linsys.canonical_form(s).label for s in systems))


def build_classify(seed: int) -> list[Op]:
    c44 = linsys.constructions.enumerate_c44  # the lru_cache object itself
    members = [ns.system for ns in c44()]
    rng = random.Random(seed)

    @cache
    def iso(i: int, j: int) -> bool:
        return i == j or ref.isomorphic(members[i], members[j])

    @cache
    def c44_labels() -> tuple[bytes, ...]:
        if any(iso(i, j) for i in range(len(members)) for j in range(i)):
            raise AssertionError("c44 members are not pairwise non-isomorphic")
        return _labels(members)

    first_digest: dict[str, str] = {}

    def check_exhaustive(got) -> Optional[str]:
        count, content = got
        if count != EXHAUSTIVE_CLASSES:
            return _expect(count, EXHAUSTIVE_CLASSES, "exhaustive classes")
        return _expect(content, first_digest.setdefault("exhaustive", content),
                       "exhaustive class list differs between passes")

    def check_family(got) -> Optional[str]:
        return _expect(len(got), C44_CLASSES, "c44 classes") or _expect(
            got, c44_labels(), "canonical labels of the c44 family")

    ops = [
        Op(
            f"exhaustive_small{EXHAUSTIVE}",
            lambda: linsys.exhaustive_small(*EXHAUSTIVE),
            lambda out: (len(out), hashlib.sha256(
                repr([(s.n_points, s.lines) for s in out]).encode()).hexdigest()),
            check_exhaustive,
        ),
        Op(
            "enumerate_c44",
            lambda: linsys.enumerate_c44(),
            lambda out: _labels(ns.system for ns in out),
            check_family,
            prepare=c44.cache_clear,
        ),
        Op(
            "enumerate_c44_exhaustive",
            lambda: linsys.enumerate_c44_exhaustive(),
            _labels,
            check_family,
        ),
    ]
    for i, a in enumerate(members):
        for r in range(RELABELINGS):
            for j in (i, (i + 1) % len(members)):
                image = ref.relabel(members[j], rng)
                ops.append(Op(
                    f"is_isomorphic c44:{i} relabeled c44:{j} #{r}",
                    lambda a=a, image=image: linsys.is_isomorphic(a, image),
                    bool,
                    lambda got, i=i, j=j: _expect(got, iso(i, j), "is_isomorphic"),
                    repeat=ISO_REPEAT,
                ))
    return ops


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _fixture_systems() -> list[tuple[str, Path, object]]:
    """(name, fixture file, the construction the file must hold)."""
    out = [(f"pi:{q}", FIXTURES / f"pi{q}.json", linsys.projective_plane(q).system)
           for q in (2, 3, 5)]
    out.append(("c34", FIXTURES / "c34.json", linsys.c34_explicit().system))
    out.append(("c", FIXTURES / "c.json", linsys.c_explicit().system))
    for i, ns in enumerate(linsys.enumerate_c44()):
        out.append((f"c44:{i}", FIXTURES / "c44" / f"member_{i:02d}.json", ns.system))
    return out


def _random_systems(seed: int) -> list[tuple[str, object]]:
    n_points, n_lines, sizes = RANDOM_SHAPE
    out = []
    sub = seed * 1000
    while len(out) < RANDOM_SYSTEMS:
        try:
            out.append((f"random-{sub}", linsys.random_linear_system(n_points, n_lines, sizes, sub)))
        except linsys.GenerationExhausted:
            pass
        sub += 1
    return out


def _planarity(s):
    """What ``linsys planarity`` does: verdict, then its certificate check."""
    verdict = linsys.zykov_planar(s)
    valid = linsys.validate_verdict(linsys.incidence_graph(s), verdict)
    return verdict.planar, valid, verdict.witness is not None


def build_solve(seed: int) -> list[Op]:
    fixtures = _fixture_systems()
    loaded = [(name, linsys.load_instance(path)) for name, path, _ in fixtures]
    randoms = _random_systems(seed)
    pi7 = ("pi:7", linsys.projective_plane(7).system)
    rng = random.Random(seed)

    @cache
    def ref_label(i: int) -> bytes:
        s = systems[i][1]
        return linsys.canonical_form(ref.relabel(s, random.Random(REF_RELABEL_SEED))).label

    def check_tau(s, cert) -> Optional[str]:
        if len(cert.members) != cert.value or not linsys.is_transversal(s, cert.members):
            return f"witness {cert.members} is not a transversal of size {cert.value}"
        return _expect(cert.value, ref.tau(s), "tau")

    def check_nu2(s, cert) -> Optional[str]:
        if len(cert.members) != cert.value or not linsys.is_two_packing(s, cert.members):
            return f"witness {cert.members} is not a 2-packing of size {cert.value}"
        return _expect(cert.value, ref.nu2(s), "nu2")

    def check_planarity(s, got) -> Optional[str]:
        planar, valid, has_witness = got
        if not valid:
            return "planarity certificate fails validate_verdict"
        if not planar and not has_witness:
            return "non-planar verdict without a Kuratowski witness"
        return _expect(planar, ref.planar(s), "planar")

    def small(name: str) -> int:
        """Runs per pass: the small fixtures take milliseconds per op."""
        return SMALL_REPEAT if name in ("pi:2", "pi:3", "c34", "c") or name.startswith("c44:") else 1

    ops = [
        Op(f"load {name}", lambda p=path: linsys.load_instance(p), lambda s: s,
           lambda got, want=want, name=name: _expect(got, want, f"{name} fixture"),
           repeat=small(name))
        for name, path, want in fixtures
    ]
    # a canonical form of pi:7 takes close to a minute, so pi:7 is solved only
    systems = loaded + [pi7] + randoms
    for i, (name, s) in enumerate(systems):
        heavy = name == "pi:7"  # seconds per call: one run per process
        r = small(name)
        ops.append(Op(f"tau {name}", lambda s=s: linsys.transversal_number(s), lambda c: c,
                      lambda got, s=s: check_tau(s, got), once=heavy, repeat=r))
        ops.append(Op(f"nu2 {name}", lambda s=s: linsys.two_packing_number(s), lambda c: c,
                      lambda got, s=s: check_nu2(s, got), once=heavy, repeat=r))
        ops.append(Op(f"planarity {name}", lambda s=s: _planarity(s), lambda v: v,
                      lambda got, s=s: check_planarity(s, got), once=heavy, repeat=r))
        if not heavy:
            ops.append(Op(f"canonical_form {name}", lambda s=s: linsys.canonical_form(s),
                          lambda f: f.label, lambda got, i=i: _expect(got, ref_label(i), "label"),
                          repeat=r))
    # canonical search time on pi:5 swings by 40x with the labeling, so only
    # the small systems are relabeled by the seed
    for i, (name, s) in enumerate(systems):
        if small(name) > 1:
            image = ref.relabel(s, rng)
            ops.append(Op(f"canonical_form {name} relabeled", lambda s=image: linsys.canonical_form(s),
                          lambda f: f.label, lambda got, i=i: _expect(got, ref_label(i), "label"),
                          repeat=SMALL_REPEAT))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-random",
            "linsys verify --random path: the rejection sampler and planarity witness "
            "extraction dominate, over thousands of sub-millisecond solver calls.",
            40.0,
            build_verify_random,
        ),
        Workload(
            "classify",
            "isomorph-free generation and the c44 oracle: canonical search on tiny "
            "systems and subsystem embedding dominate; no planarity, no sampler.",
            45.0,
            build_classify,
        ),
        Workload(
            "solve",
            "linsys solve, planarity and canonical_form on planes, extremal and random "
            "systems: a few hard branch-and-bound calls (pi:7) dominate.",
            90.0,
            build_solve,
        ),
    )
}
