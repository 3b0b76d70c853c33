"""Builders for the named extremal structures, and every system generator.

The central objects: prime-order projective planes from homogeneous
coordinates, the 8-point 3-regular system ``c34`` and the 10-point system
``c`` (both the explicit tables and their derivations from the order-3
plane), the enumeration of the family ``c44`` of systems sandwiched
between ``c`` and the order-3 plane with 2-packing number 4, a seeded
random sampler, and the exhaustive class of small systems.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from math import ceil, log
from typing import Callable, Iterator, Optional

from .core import (
    BadPointId,
    LinearSystem,
    LinearSystemError,
    TooLarge,
    _bits,
    _canonical_key,
    _canonical_search,
    _image,
    _is_int,
    _mask,
    _orbit,
    _orbit_firsts,
    _pair_line_index,
    _refine,
    _restrict,
    embeds_as_subsystem,
    new_linear_system,
)
from .files import MAX_POINTS
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


_PLANE_ORDERS = (2, 3, 5, 7, 11)


@lru_cache(maxsize=None)
def projective_plane(q: int) -> NamedSystem:
    """Projective plane of prime order q <= 11: points are normalized
    homogeneous triples mod q (first nonzero coordinate 1, in lexicographic
    order), lines are normalized covectors, incidence is a zero dot product."""
    # q is compared, never factored, so a huge order fails at once
    if isinstance(q, int) and q > _PLANE_ORDERS[-1]:
        raise TooLarge(f"order {q} exceeds the supported bound {_PLANE_ORDERS[-1]}")
    if not isinstance(q, int) or q not in _PLANE_ORDERS:
        raise NotPrime(f"order must be prime, got {q!r}")
    reps = [(0, 0, 1)] + [(0, 1, c) for c in range(q)]
    reps += [(1, b, c) for b in range(q) for c in range(q)]
    lines = [
        [i for i, v in enumerate(reps) if sum(a * b for a, b in zip(cov, v)) % q == 0]
        for cov in reps
    ]
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
    keep = set(range(pi3.n_points)) - set(pi3.lines[l]) - {k}
    lines = [i for i, line in enumerate(pi3.lines) if i != l and k not in line]
    system, _ = _restrict(pi3, keep, lines)
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
    if not all(map(_is_int, (*t.vertices, *t.sides))):
        raise NotATriangle(f"{t} names a point or line by a non-integer")
    pair_line = _pair_line_index(sys)
    want = {pair_line.get(pair) for pair in itertools.combinations(sorted(t.vertices), 2)}
    if None in want or len(want) != 3 or want != set(t.sides):
        raise NotATriangle(f"{t} is not a triangle of this system")
    keep = set(range(sys.n_points)) - set(t.vertices)
    lines = [i for i in range(sys.n_lines) if i not in want]
    system, _ = _restrict(sys, keep, lines)
    return NamedSystem(
        "c", system, (("vertices", t.vertices), ("sides", t.sides))
    )


def _subsets(items) -> list[tuple]:
    items = list(items)
    out = []
    for k in range(len(items) + 1):
        out.extend(itertools.combinations(items, k))
    return out


def _c44_classes(
    tri: Triangle, line_sets: list[tuple[int, ...]]
) -> list[tuple[tuple[int, ...], tuple[int, ...], LinearSystem]]:
    """Restrict each line set to the points of pi:3 off ``tri`` plus each
    subset of its vertices, and keep the systems with 2-packing number 4
    that contain ``c``: the first ``(added vertices, line set, system)`` of
    each isomorphism class, sorted by canonical key.  A pair is skipped when
    an automorphism of pi:3 keeping the vertices maps an earlier pair onto
    it, as the restrictions are then isomorphic.
    """
    pi3 = projective_plane(3).system
    base = set(range(pi3.n_points)) - set(tri.vertices)
    c_sys = c_explicit().system
    # one search with the vertices coloured apart finds their stabilizer
    stab = _canonical_search(pi3, tuple(int(p in base) for p in range(pi3.n_points)))[2]
    line_of = {line: i for i, line in enumerate(pi3.lines)}
    gens = [(g, [line_of[_image(g, line)] for line in pi3.lines]) for g in stab]
    pairs = ((pts, chosen) for pts in _subsets(tri.vertices) for chosen in line_sets)
    found: dict[tuple, tuple] = {}
    for added_pts, chosen in _orbit_firsts(
        pairs, gens, lambda gen, pair: (_image(gen[0], pair[0]), _image(gen[1], pair[1]))
    ):
        cand, _ = _restrict(pi3, base | set(added_pts), chosen)
        if two_packing_number(cand).value != 4:
            continue
        if embeds_as_subsystem(c_sys, cand) is None:
            continue
        key = _canonical_key(cand)
        if key not in found:
            found[key] = (added_pts, chosen, cand)
    return [found[k] for k in sorted(found)]


@lru_cache(maxsize=None)
def enumerate_c44() -> tuple[NamedSystem, ...]:
    """All systems (up to isomorphism) that contain ``c`` as a linear
    subsystem, are linear subsystems of the order-3 plane, and have 2-packing
    number 4.

    Strategy: fix the plane and its first triangle, then add back any subset
    of the triangle's vertices and any subset of its side lines, restricting
    every chosen plane line to the enlarged point set.  Each such restriction
    is a linear subsystem of the plane by construction; a candidate survives
    when its 2-packing number is 4 and ``c`` embeds in it, and one member is
    kept per isomorphism class.
    """
    pi3 = projective_plane(3).system
    tri = find_triangles(pi3)[0]
    parents = [i for i in range(pi3.n_lines) if i not in tri.sides]
    sides_of = {tuple(sorted(parents + list(s))): s for s in _subsets(tri.sides)}
    return tuple(
        NamedSystem(f"c44:{i}", cand, (("added_points", pts), ("added_sides", sides_of[chosen])))
        for i, (pts, chosen, cand) in enumerate(_c44_classes(tri, list(sides_of)))
    )


def enumerate_c44_exhaustive() -> tuple[LinearSystem, ...]:
    """Oracle for :func:`enumerate_c44`: the same search over every set of at
    least as many plane lines as ``c`` has, not only the lines off the
    triangle plus some of its sides.

    Returns the deduplicated members sorted by canonical key.
    """
    pi3 = projective_plane(3).system
    tri = find_triangles(pi3)[0]
    n_c = c_explicit().system.n_lines
    line_sets = [s for s in _subsets(range(pi3.n_lines)) if len(s) >= n_c]
    return tuple(cand for _, _, cand in _c44_classes(tri, line_sets))


def _free_set_exists(free: list[int], cand: int, k: int) -> bool:
    """Whether ``k`` points of the mask ``cand`` are pairwise free, where
    ``free[p]`` is the mask of the points that share no line with ``p``."""
    if k == 0:
        return True
    while cand.bit_count() >= k:
        low = cand & -cand
        cand ^= low
        # later points only, so each set is tried once, in increasing order
        if _free_set_exists(free, cand & free[low.bit_length() - 1], k - 1):
            return True
    return False


def _line_fits(free: list[int], singles: int, lo: int, hi: int) -> bool:
    """Whether some new line of ``lo`` to ``hi`` points (``1 <= lo <= hi``)
    meets every line in at most one point and is not a line already.

    ``free[p]`` is the mask of the points that share no line with ``p`` and
    ``singles`` the mask of the points whose singleton is a line.  A line of
    two or more points fits iff its points are pairwise free, and any
    ``lo`` of them fit too, so for ``lo >= 2`` it asks for ``lo`` pairwise
    free points.  A singleton fits iff it is not a line yet.
    """
    everyone = (1 << len(free)) - 1
    if lo >= 2:
        return _free_set_exists(free, everyone, lo)
    return singles != everyone or (hi >= 2 and _free_set_exists(free, everyone, 2))


def _size_range(size_range: tuple[int, int], n: int) -> tuple[int, int]:
    """The bounds ``(lo, min(hi, n))`` of a line-size range; raises
    :class:`GenerationExhausted` unless it is two ints with ``1 <= lo <= hi``."""
    try:
        lo, hi = size_range
    except (TypeError, ValueError):
        raise GenerationExhausted(f"infeasible size range {size_range}") from None
    if not (_is_int(lo) and _is_int(hi)) or lo < 1 or hi < lo:
        raise GenerationExhausted(f"infeasible size range {size_range}")
    return lo, min(hi, n)


def _draw_mask(getrandbits, n: int, lo: int, hi: int) -> tuple[int, int]:
    """The size and point mask of one draw: what ``rng.randint(lo, hi)``
    then ``rng.sample(range(n), size)`` return for
    ``getrandbits = rng.getrandbits``, from the same Mersenne Twister words
    (CPython 3.10-3.13).

    ``randbelow(w)`` is ``getrandbits(w.bit_length())`` until the value is
    below ``w``.  ``sample`` swaps picks out of a pool list while ``n`` is
    small next to the set a ``size``-element sample would need, and else
    draws ``randbelow(n)`` again while the point is already chosen.
    """
    w = hi - lo + 1
    k = w.bit_length()
    r = getrandbits(k)
    while r >= w:
        r = getrandbits(k)
    size = lo + r
    mask = 0
    if n <= 21 + (4 ** ceil(log(size * 3, 4)) if size > 5 else 0):
        pool = list(range(n))
        for m in range(n, n - size, -1):
            k = m.bit_length()
            j = getrandbits(k)
            while j >= m:
                j = getrandbits(k)
            mask |= 1 << pool[j]
            pool[j] = pool[m - 1]
    else:
        k = n.bit_length()
        for _ in range(size):
            j = getrandbits(k)
            while j >= n or mask >> j & 1:
                j = getrandbits(k)
            mask |= 1 << j
    return size, mask


def random_linear_system(
    n_points: int,
    n_lines: int,
    line_size_range: tuple[int, int],
    seed: int,
) -> LinearSystem:
    """Seeded rejection sampler: draw random point subsets in the size range
    and accept a draw iff it meets every accepted line in at most one point
    and is not a line already.

    Each draw is a fixed function of the 32-bit Mersenne Twister words of
    ``random.Random(seed)``: the subset that ``randint`` for its size plus
    ``sample`` for its points return on CPython 3.10-3.13.  Raises
    :class:`GenerationExhausted` as soon as no line in the size range fits
    next to the accepted ones, once the rejection budget runs out, or for a
    ``None`` seed, which would seed from the operating system;
    :class:`BadPointId` for a point count that is not an int;
    :class:`TooLarge` for more points than an instance file may declare.
    """
    if not _is_int(n_points):
        raise BadPointId(f"point count must be an integer, got {n_points!r}")
    if not _is_int(n_lines) or n_lines < 0:
        raise GenerationExhausted(f"line count must be a nonnegative integer, got {n_lines!r}")
    if seed is None:
        raise GenerationExhausted("the sampler needs a seed, got None")
    lo, hi = _size_range(line_size_range, n_points)
    if lo > n_points:
        raise GenerationExhausted(
            f"size range {line_size_range} infeasible with {n_points} points"
        )
    # the free masks below take n_points**2 bits
    if n_points > MAX_POINTS:
        raise TooLarge(f"point count {n_points} exceeds the supported limit of {MAX_POINTS}")
    getrandbits = random.Random(seed).getrandbits
    lines: list[tuple[int, ...]] = []
    # free[p]: the points that share no accepted line with p
    free = [((1 << n_points) - 1) ^ (1 << p) for p in range(n_points)]
    singles = 0  # the points whose singleton is an accepted line
    attempts = 0
    budget = 400 * n_lines + 200
    while len(lines) < n_lines:
        attempts += 1
        if attempts > budget:
            raise GenerationExhausted(
                f"gave up after {attempts} draws with {len(lines)}/{n_lines} lines"
            )
        size, m = _draw_mask(getrandbits, n_points, lo, hi)
        if size == 1:
            if singles & m:
                continue
            singles |= m
        elif any(m & free[p] != m ^ (1 << p) for p in _bits(m)):
            continue
        pts = tuple(_bits(m))
        lines.append(pts)
        for p in pts:
            free[p] &= ~m
        if len(lines) < n_lines and not _line_fits(free, singles, lo, hi):
            raise GenerationExhausted(
                f"no line of {lo} to {hi} points fits after {len(lines)}/{n_lines} lines"
            )
    # sorted, distinct and pairwise linear by the checks above
    return LinearSystem(n_points, tuple(lines))


def _extensions(
    sys: LinearSystem, gens: list, lo: int, hi: int, max_points: int
) -> Iterator[tuple[LinearSystem, tuple[int, ...]]]:
    """Each candidate ``(sys plus newline, newline)`` of the next level: the
    new line has ``lo`` to ``hi`` points but no more than the smallest line
    of ``sys``, meets every line in at most one point, takes new points the
    next free ids, and reuses only the first point set of each orbit under
    the automorphisms ``gens`` of ``sys`` (which map extensions onto
    isomorphic ones)."""
    n = sys.n_points
    cap = len(sys.lines[0]) if sys.lines else hi
    for size in range(lo, min(cap, hi) + 1):
        for reuse in range(0, size + 1):
            fresh = size - reuse
            if n + fresh > max_points or reuse > n:
                continue
            bases = itertools.combinations(range(n), reuse)
            for base in _orbit_firsts(bases, gens, _image):
                bmask = _mask(base)
                if any((bmask & m).bit_count() > 1 for m in sys.masks):
                    continue
                newline = base + tuple(range(n, n + fresh))
                if fresh == 0 and newline in sys.lines:
                    continue
                # valid by the checks above: no second validation
                yield LinearSystem(n + fresh, sys.lines + (newline,)), newline


def _most(lines: list[tuple[int, ...]], score: Callable) -> list[tuple[int, ...]]:
    """The lines of greatest ``score``."""
    scores = [score(line) for line in lines]
    top = max(scores)
    return [line for line, s in zip(lines, scores) if s == top]


def _canonical_augmentation(cand: LinearSystem, newline: tuple[int, ...]) -> Optional[tuple]:
    """The canonical search of ``cand`` if ``newline`` is its canonical line
    to delete, up to automorphisms, and else None.

    The canonical line to delete is one of the smallest lines (so deleting
    it leaves a parent that lines are added to in non-increasing size
    order): among those, the ones whose sorted point degrees are greatest,
    among these the ones whose sorted colours after refinement are
    greatest, and among these the one whose canonically relabeled tuple is
    greatest.  The first two steps reject most candidates before any search.
    """
    incident = cand.incidence
    tied = _most([l for l in cand.lines if len(l) == len(newline)],
                 lambda l: sorted(len(incident[p]) for p in l))
    if newline not in tied:
        return None
    colors = _refine(cand, (0,) * cand.n_points)
    tied = _most(tied, lambda l: sorted(map(colors.__getitem__, l)))
    if newline not in tied:
        return None
    # the search refines these colours to themselves: its labels are unchanged
    found = _canonical_search(cand, colors)
    _, lab, autos = found
    deleted = max(tied, key=lambda l: _image(lab, l))
    return found if newline in _orbit((deleted,), autos, _image) else None


def exhaustive_small(
    max_points: int, max_lines: int, size_range: tuple[int, int] = (2, 4)
) -> list[LinearSystem]:
    """All linear systems within the bounds, one per isomorphism class.

    Canonical augmentation (McKay, "Isomorph-free exhaustive generation",
    1998): each class of a level is extended by the lines of
    :func:`_extensions`, and an extension is kept only when its new line is
    its canonical line to delete (:func:`_canonical_augmentation`), so each
    class of the next level is kept once.  Nearly every rejection comes
    before the search: (8, 6) takes 3,271 searches for its 3,271 non-empty
    classes (8,435 when every extension was searched) and about 0.64 s (the
    classify benchmark's median over 10 runs, CPython 3.11 on a 2-vCPU VM);
    (9, 7) takes 38,416 for 38,415.  Classes come in the order of their canonical
    encodings, and ground sets carry no isolated points.  Raises
    :class:`GenerationExhausted` for a bound that is not a nonnegative int or
    a size range that is not two ints with ``1 <= lo <= hi``.
    """
    if not all(_is_int(b) and b >= 0 for b in (max_points, max_lines)):
        raise GenerationExhausted(
            f"bounds must be nonnegative integers, got {max_points!r}/{max_lines!r}"
        )
    if max_points > 9 or max_lines > 7:
        raise TooLarge(
            f"exhaustive generation limited to 9 points / 7 lines, got "
            f"{max_points}/{max_lines}"
        )
    lo, hi = _size_range(size_range, max_points)
    empty = new_linear_system(0, [])
    out = [empty]
    # each class with its automorphisms, n_points bytes each in one string
    frontier: list[tuple[LinearSystem, bytes]] = [(empty, b"")]
    for _ in range(max_lines):
        level: dict[tuple, tuple[LinearSystem, bytes]] = {}
        for sys, autos in frontier:
            n = sys.n_points
            gens = [autos[i:i + n] for i in range(0, len(autos), n or 1)]
            for cand, newline in _extensions(sys, gens, lo, hi, max_points):
                accepted = _canonical_augmentation(cand, newline)
                if accepted is None:
                    continue
                key, lab, found = accepted
                assert key not in level, "a class was accepted twice"
                rep = LinearSystem(*key)
                # sigma sends lab[p] to lab[sigma[p]] in rep's labels
                point_of = sorted(range(rep.n_points), key=lab.__getitem__)
                level[key] = (rep, bytes(lab[sigma[p]] for sigma in found for p in point_of))
        frontier = [level[k] for k in sorted(level)]
        out.extend(rep for rep, _ in frontier)
    return out
