"""Builders for the named extremal structures and a seeded random generator.

The central objects: prime-order projective planes from homogeneous
coordinates, the 8-point 3-regular system ``c34`` and the 10-point system
``c`` (both the explicit tables and their derivations from the order-3
plane), and the enumeration of the family ``c44`` of systems sandwiched
between ``c`` and the order-3 plane with 2-packing number 4.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache

from .core import (
    LinearSystem,
    LinearSystemError,
    TooLarge,
    _canonical_key,
    _from_residual_lines,
    _is_int,
    _mask,
    _pair_line_index,
    embeds_as_subsystem,
    new_linear_system,
)
from .solvers import two_packing_number


class NotPrime(LinearSystemError):
    pass


class PointOnLine(LinearSystemError):
    pass


class NotATriangle(LinearSystemError):
    pass


class GenerationExhausted(LinearSystemError):
    pass


@dataclass(frozen=True)
class NamedSystem:
    """A constructed system together with the parameters that produced it."""

    name: str
    system: LinearSystem
    provenance: tuple[tuple[str, object], ...] = ()

    def prov(self) -> dict:
        return dict(self.provenance)


@dataclass(frozen=True)
class Triangle:
    """Three pairwise joined, non-collinear points and their three side lines."""

    vertices: tuple[int, int, int]
    sides: tuple[int, int, int]


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def _normalized_triples(q: int) -> list[tuple[int, int, int]]:
    """Projective representatives: nonzero triples mod q scaled so the first
    nonzero coordinate is 1, in lexicographic order."""
    out = []
    for v in itertools.product(range(q), repeat=3):
        if v == (0, 0, 0):
            continue
        lead = next(x for x in v if x != 0)
        inv = pow(lead, q - 2, q) if lead != 1 else 1
        norm = tuple((x * inv) % q for x in v)
        if norm == v:
            out.append(v)
    out.sort()
    return out


@lru_cache(maxsize=None)
def projective_plane(q: int) -> NamedSystem:
    """Projective plane of prime order q: points are normalized homogeneous
    triples mod q, lines are normalized covectors, incidence is a zero dot
    product."""
    if not isinstance(q, int) or not _is_prime(q):
        raise NotPrime(f"order must be prime, got {q!r}")
    if q > 11:
        raise TooLarge(f"order {q} exceeds the supported bound 11")
    reps = _normalized_triples(q)
    index = {v: i for i, v in enumerate(reps)}
    lines = []
    for cov in reps:
        pts = sorted(
            index[v] for v in reps if sum(a * b for a, b in zip(cov, v)) % q == 0
        )
        lines.append(pts)
    system = new_linear_system(len(reps), lines)
    return NamedSystem(f"pi:{q}", system, (("q", q),))


_C34_SYMBOLS = ("p", "q", "x1", "x2", "x3", "y1", "y3", "y4")
# Witnesses for tau = nu2 = 4: the transversal {x1,x2,y1,y3} and the 2-packing
# {p,x2,y4},{q,x3,y3},{x1,x3,y4},{x1,x2,y3}.  The transversal {x1,x2,y1,y4}
# found elsewhere is wrong: it misses {q,x3,y3}.
_C34_LINES = (
    (0, 5, 6),  # p y1 y3
    (3, 4, 5),  # x2 x3 y1
    (1, 5, 7),  # q y1 y4
    (2, 4, 7),  # x1 x3 y4
    (0, 1, 2),  # p q x1
    (2, 3, 6),  # x1 x2 y3
    (1, 4, 6),  # q x3 y3
    (0, 3, 7),  # p x2 y4
)

_C_SYMBOLS = ("p", "q", "x1", "x2", "x3", "y1", "y2", "y3", "y4", "y5")
_C_LINES = (
    (0, 5, 6, 7),  # p y1 y2 y3
    (1, 5, 8, 9),  # q y1 y4 y5
    (2, 3, 7, 9),  # x1 x2 y3 y5
    (2, 4, 6, 8),  # x1 x3 y2 y4
    (0, 3, 8),     # p x2 y4
    (0, 4, 9),     # p x3 y5
    (0, 1, 2),     # p q x1
    (1, 3, 6),     # q x2 y2
    (1, 4, 7),     # q x3 y3
    (3, 4, 5),     # x2 x3 y1
)


@lru_cache(maxsize=None)
def c34_explicit() -> NamedSystem:
    """The 8-point, 8-line, 3-regular and 3-uniform extremal system, with the
    fixed symbol-to-id table recorded in the provenance."""
    system = new_linear_system(8, [list(l) for l in _C34_LINES])
    table = tuple((s, i) for i, s in enumerate(_C34_SYMBOLS))
    return NamedSystem("c34", system, (("symbols", table),))


@lru_cache(maxsize=None)
def c_explicit() -> NamedSystem:
    """The 10-point, 10-line system obtained from the order-3 plane by
    removing a triangle, as an explicit table."""
    system = new_linear_system(10, [list(l) for l in _C_LINES])
    table = tuple((s, i) for i, s in enumerate(_C_SYMBOLS))
    return NamedSystem("c", system, (("symbols", table),))


def c34_from_pi3(k: int, l: int) -> NamedSystem:
    """Derive the 8/8 system from the order-3 plane: drop point ``k`` with its
    four lines, then line ``l`` with its four points.  Requires ``k`` not on
    ``l``; every valid choice yields the same isomorphism class."""
    pi3 = projective_plane(3).system
    if not (_is_int(k) and 0 <= k < pi3.n_points):
        raise PointOnLine(f"point id {k!r} out of range")
    if not (_is_int(l) and 0 <= l < pi3.n_lines):
        raise PointOnLine(f"line index {l!r} out of range")
    if k in pi3.lines[l]:
        raise PointOnLine(f"point {k} lies on line {l}")
    drop_points = set(pi3.lines[l]) | {k}
    residual = []
    for i, line in enumerate(pi3.lines):
        if i == l or k in line:
            continue
        residual.append(tuple(p for p in line if p not in drop_points))
    system, _ = _from_residual_lines(residual)
    return NamedSystem("c34", system, (("q", 3), ("k", k), ("l", l)))


def find_triangles(sys: LinearSystem) -> list[Triangle]:
    """All triples of non-collinear points whose three joining lines exist."""
    pair_line = _pair_line_index(sys)
    out = []
    for a, b, c in itertools.combinations(range(sys.n_points), 3):
        ab = pair_line.get((a, b))
        ac = pair_line.get((a, c))
        bc = pair_line.get((b, c))
        if ab is None or ac is None or bc is None:
            continue
        if len({ab, ac, bc}) != 3:
            continue  # collinear triple
        out.append(Triangle((a, b, c), tuple(sorted((ab, ac, bc)))))
    return out


def triangle_delete(host: NamedSystem | LinearSystem, t: Triangle) -> NamedSystem:
    """Delete a triangle's three vertices and three side lines from the host.

    Applied to the order-3 plane this produces the 10/10 system ``c`` up to
    isomorphism, whatever triangle is chosen.
    """
    sys = host.system if isinstance(host, NamedSystem) else host
    pair_line = _pair_line_index(sys)
    want = {pair_line.get(pair) for pair in itertools.combinations(sorted(t.vertices), 2)}
    if None in want or len(want) != 3 or want != set(t.sides):
        raise NotATriangle(f"{t} is not a triangle of this system")
    drop_points = set(t.vertices)
    residual = [
        tuple(p for p in line if p not in drop_points)
        for i, line in enumerate(sys.lines)
        if i not in want
    ]
    system, _ = _from_residual_lines(residual)
    return NamedSystem(
        "c", system, (("vertices", t.vertices), ("sides", t.sides))
    )


def _c44_candidate(
    pi3: LinearSystem,
    point_set: list[int],
    line_indices: list[int],
) -> LinearSystem | None:
    """Restrict the chosen plane lines to the chosen point set; None when the
    restrictions do not form a valid system."""
    pset = set(point_set)
    relabel = {old: new for new, old in enumerate(sorted(point_set))}
    lines = []
    for i in line_indices:
        restricted = tuple(relabel[p] for p in pi3.lines[i] if p in pset)
        if not restricted:
            return None
        lines.append(restricted)
    try:
        return new_linear_system(len(point_set), lines)
    except LinearSystemError:
        return None


def _subsets(items) -> list[tuple]:
    items = list(items)
    out = []
    for k in range(len(items) + 1):
        out.extend(itertools.combinations(items, k))
    return out


@lru_cache(maxsize=None)
def enumerate_c44() -> tuple[NamedSystem, ...]:
    """All systems (up to isomorphism) that contain ``c`` as a linear
    subsystem, are linear subsystems of the order-3 plane, and have 2-packing
    number 4.

    Strategy: fix the plane and its first triangle, then add back any subset
    of the triangle's vertices and any subset of its side lines, restricting
    every chosen plane line to the enlarged point set.  Each survivor is
    validated by explicit embedding checks in both directions before the
    packing filter and canonical deduplication.
    """
    pi3 = projective_plane(3).system
    tri = find_triangles(pi3)[0]
    side_set = set(tri.sides)
    parents = [i for i in range(pi3.n_lines) if i not in side_set]
    base_points = sorted(set(range(pi3.n_points)) - set(tri.vertices))
    c_sys = c_explicit().system

    found: dict[tuple, NamedSystem] = {}
    for added_pts in _subsets(tri.vertices):
        point_set = sorted(base_points + list(added_pts))
        for added_sides in _subsets(sorted(side_set)):
            chosen = sorted(parents + list(added_sides))
            cand = _c44_candidate(pi3, point_set, chosen)
            if cand is None:
                continue
            if two_packing_number(cand).value != 4:
                continue
            if embeds_as_subsystem(c_sys, cand) is None:
                continue
            if embeds_as_subsystem(cand, pi3) is None:
                continue
            key = _canonical_key(cand)
            if key not in found:
                prov = (("added_points", added_pts), ("added_sides", added_sides))
                found[key] = NamedSystem("c44", cand, prov)
    return tuple(
        NamedSystem(f"c44:{i}", ns.system, ns.provenance)
        for i, ns in enumerate(found[k] for k in sorted(found))
    )


def enumerate_c44_exhaustive() -> tuple[LinearSystem, ...]:
    """Slow oracle for :func:`enumerate_c44`: enumerate every subsystem of the
    order-3 plane on a point superset of the triangle-deleted system and every
    line subset of the restrictions, then filter by the same membership tests.

    Returns the deduplicated members sorted by canonical key.
    """
    pi3 = projective_plane(3).system
    tri = find_triangles(pi3)[0]
    base_points = sorted(set(range(pi3.n_points)) - set(tri.vertices))
    c_sys = c_explicit().system
    n_c_lines = c_sys.n_lines

    found: dict[tuple, LinearSystem] = {}
    for added_pts in _subsets(tri.vertices):
        point_set = sorted(base_points + list(added_pts))
        for k in range(n_c_lines, pi3.n_lines + 1):
            for chosen in itertools.combinations(range(pi3.n_lines), k):
                cand = _c44_candidate(pi3, point_set, list(chosen))
                if cand is None:
                    continue
                if two_packing_number(cand).value != 4:
                    continue
                if embeds_as_subsystem(c_sys, cand) is None:
                    continue
                key = _canonical_key(cand)
                if key not in found:
                    found[key] = cand
    return tuple(found[k] for k in sorted(found))


def random_linear_system(
    n_points: int,
    n_lines: int,
    line_size_range: tuple[int, int],
    seed: int,
) -> LinearSystem:
    """Seeded rejection sampler: draw random point subsets in the size range
    and accept a draw iff it meets every accepted line in at most one point.

    Deterministic for a fixed seed; raises :class:`GenerationExhausted` once
    the rejection budget runs out.
    """
    lo, hi = line_size_range
    if lo < 1 or hi < lo:
        raise GenerationExhausted(f"infeasible size range {line_size_range}")
    if lo > n_points:
        raise GenerationExhausted(
            f"size range {line_size_range} infeasible with {n_points} points"
        )
    hi = min(hi, n_points)
    rng = random.Random(seed)
    lines: list[tuple[int, ...]] = []
    masks: list[int] = []
    lineset: set[tuple[int, ...]] = set()
    attempts = 0
    budget = 400 * n_lines + 200
    while len(lines) < n_lines:
        attempts += 1
        if attempts > budget:
            raise GenerationExhausted(
                f"gave up after {attempts} draws with {len(lines)}/{n_lines} lines"
            )
        size = rng.randint(lo, hi)
        pts = tuple(sorted(rng.sample(range(n_points), size)))
        if pts in lineset:
            continue
        m = _mask(pts)
        if any((m & em).bit_count() > 1 for em in masks):
            continue
        lines.append(pts)
        masks.append(m)
        lineset.add(pts)
    return new_linear_system(n_points, lines)
