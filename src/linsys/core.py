"""Finite point-line incidence structures where two lines meet in at most one point.

Points are dense integer ids ``0..n_points-1`` and lines are strictly sorted
tuples of point ids.  Structural edits (point/line deletion, induced
subsystems, low-degree pruning) return a fresh system together with the
old-id to new-id relabeling of the surviving points, so downstream bitset
encodings stay compact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import getitem
from typing import Callable, Container, Iterable, Iterator, Optional


class LinearSystemError(Exception):
    """Base class for structural errors raised by this package."""


class LinearityViolation(LinearSystemError):
    """Two distinct lines share two or more points."""

    def __init__(self, line_a: int, line_b: int, shared: tuple[int, ...]):
        self.line_a = line_a
        self.line_b = line_b
        self.shared = shared
        super().__init__(
            f"lines {line_a} and {line_b} share points {list(shared)}; "
            "at most one common point is allowed"
        )


class BadPointId(LinearSystemError):
    pass


class BadLineIndex(LinearSystemError):
    pass


class DuplicateLine(LinearSystemError):
    pass


class EmptyLine(LinearSystemError):
    pass


class TooFewLines(LinearSystemError):
    pass


class TooLarge(LinearSystemError):
    pass


def _is_int(x) -> bool:
    """An int that is not a bool: ``True == 1``, but it is no id or count."""
    return isinstance(x, int) and not isinstance(x, bool)


def _mask(points: Iterable[int]) -> int:
    m = 0
    for p in points:
        m |= 1 << p
    return m


def _bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


@dataclass(frozen=True)
class LinearSystem:
    """Validated incidence structure; build instances via :func:`new_linear_system`.

    ``masks`` (one point bitmask per line, for O(1) intersection tests) and
    ``incidence`` (the ascending indices of the lines through each point)
    are derived from ``lines`` on first use, so a system that is only stored
    or printed carries neither, and they take no part in equality.
    """

    n_points: int
    lines: tuple[tuple[int, ...], ...]

    @cached_property
    def masks(self) -> tuple[int, ...]:
        return tuple(_mask(l) for l in self.lines)

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        incident: list[list[int]] = [[] for _ in range(self.n_points)]
        for i, line in enumerate(self.lines):
            for p in line:
                incident[p].append(i)
        return tuple(map(tuple, incident))

    @property
    def n_lines(self) -> int:
        return len(self.lines)


@dataclass(frozen=True)
class CanonicalForm:
    """Relabeling-invariant identity of a system after low-degree pruning.

    Two systems get equal labels exactly when their pruned forms admit an
    incidence-preserving point bijection.
    """

    label: bytes
    pruned_sizes: tuple[int, int]


@dataclass
class Embedding:
    """Witness that one system occurs inside another as a linear subsystem.

    ``point_map`` is an injective map from the (pruned) candidate's points
    into the host's points, and ``line_map`` sends each candidate line index
    to a host line index whose restriction to the mapped point set equals the
    image of the candidate line.
    """

    point_map: dict[int, int]
    line_map: dict[int, int]


@dataclass(frozen=True)
class ThreeHypergraph:
    """3-uniform hypergraph on line indices; a triple is an edge iff the three
    lines have empty common intersection.

    ``disjoint_pairs`` records the line pairs with no common point; the
    chromatic cross-check needs them because a color class must be an
    intersecting family, which triples alone cannot express for 2-element
    classes.
    """

    n_vertices: int
    edges: frozenset[tuple[int, int, int]]
    disjoint_pairs: frozenset[tuple[int, int]] = frozenset()


def new_linear_system(n_points: int, lines: Iterable[Iterable[int]]) -> LinearSystem:
    """Validate and normalize a linear system.

    Each line is sorted and deduplicated internally.  Raises
    :class:`EmptyLine`, :class:`BadPointId`, :class:`DuplicateLine` or
    :class:`LinearityViolation` (reporting the offending pair) when the input
    is not a linear system.
    """
    if not _is_int(n_points) or n_points < 0:
        raise BadPointId(f"point count must be a nonnegative integer, got {n_points!r}")
    norm: list[tuple[int, ...]] = []
    for idx, raw in enumerate(lines):
        raw = tuple(raw)
        # checked before deduplication: set() would merge True into 1
        for p in raw:
            if not (_is_int(p) and 0 <= p < n_points):
                raise BadPointId(f"line {idx} contains invalid point id {p!r}")
        pts = tuple(sorted(set(raw)))
        if not pts:
            raise EmptyLine(f"line {idx} is empty")
        norm.append(pts)
    seen: dict[tuple[int, ...], int] = {}
    for idx, pts in enumerate(norm):
        if pts in seen:
            raise DuplicateLine(f"line {idx} duplicates line {seen[pts]}: {list(pts)}")
        seen[pts] = idx
    masks = [_mask(l) for l in norm]
    for i in range(len(norm)):
        for j in range(i + 1, len(norm)):
            inter = masks[i] & masks[j]
            if inter.bit_count() > 1:
                raise LinearityViolation(i, j, tuple(_bits(inter)))
    return LinearSystem(n_points, tuple(norm))


# ---------------------------------------------------------------------------
# degree accessors
# ---------------------------------------------------------------------------

def _check_point(sys: LinearSystem, p: int) -> None:
    if not (_is_int(p) and 0 <= p < sys.n_points):
        raise BadPointId(f"point id {p!r} out of range [0, {sys.n_points})")


def _check_line(sys: LinearSystem, l: int) -> None:
    if not (_is_int(l) and 0 <= l < sys.n_lines):
        raise BadLineIndex(f"line index {l!r} out of range [0, {sys.n_lines})")


def degree(sys: LinearSystem, p: int) -> int:
    """Number of lines through point ``p``."""
    _check_point(sys, p)
    return len(sys.incidence[p])


def max_degree(sys: LinearSystem) -> int:
    """Largest point degree; 0 for a system without incidences."""
    return max(map(len, sys.incidence), default=0)


# ---------------------------------------------------------------------------
# structural reductions
# ---------------------------------------------------------------------------

def _restrict(
    sys: LinearSystem, keep: Container[int], line_indices: Iterable[int]
) -> tuple[LinearSystem, dict[int, int]]:
    """The chosen lines of ``sys``, in the given order, cut down to the kept
    points: empty restrictions are dropped, equal ones merged keeping the
    first, and the ground set shrinks to the covered points.  Returns the new
    system, linear as ``sys`` is and so not validated again, and the
    old-to-new relabeling."""
    kept: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for i in line_indices:
        line = tuple(p for p in sys.lines[i] if p in keep)
        if line and line not in seen:
            seen.add(line)
            kept.append(line)
    covered = sorted({p for line in kept for p in line})
    relabel = {old: new for new, old in enumerate(covered)}
    new_lines = tuple(tuple(relabel[p] for p in line) for line in kept)
    return LinearSystem(len(covered), new_lines), relabel


def delete_point(sys: LinearSystem, p: int) -> tuple[LinearSystem, dict[int, int]]:
    """System induced by the lines with ``p`` removed (ground set shrinks to
    the points the residual lines still cover)."""
    _check_point(sys, p)
    return _restrict(sys, set(range(sys.n_points)) - {p}, range(sys.n_lines))


def delete_line(sys: LinearSystem, l: int) -> tuple[LinearSystem, dict[int, int]]:
    """Induced subsystem on all lines except ``l``."""
    _check_line(sys, l)
    return _restrict(sys, range(sys.n_points), (i for i in range(sys.n_lines) if i != l))


def induced_subsystem(
    sys: LinearSystem, line_subset: Iterable[int]
) -> tuple[LinearSystem, dict[int, int]]:
    """Subsystem on exactly the points covered by the chosen lines."""
    chosen = sorted(set(line_subset))
    for l in chosen:
        _check_line(sys, l)
    return _restrict(sys, range(sys.n_points), chosen)


def prune_low_degree(sys: LinearSystem) -> tuple[LinearSystem, dict[int, int]]:
    """Remove every point of degree <= 1 in a single pass.

    Removal of a degree-0/1 point cannot lower any other point's degree, so a
    single sweep suffices; lines shrink accordingly and emptied lines are
    dropped.
    """
    keep = {p for p, ls in enumerate(sys.incidence) if len(ls) >= 2}
    return _restrict(sys, keep, range(sys.n_lines))


def _pair_line_index(sys: LinearSystem) -> dict[tuple[int, int], int]:
    """The line through each joined point pair ``(u, v)``, with ``u < v``."""
    index: dict[tuple[int, int], int] = {}
    for i, line in enumerate(sys.lines):
        for pair in itertools.combinations(line, 2):
            index[pair] = i
    return index


def three_hypergraph(sys: LinearSystem) -> ThreeHypergraph:
    """Hypergraph on line indices whose edges are the triples of lines with no
    common point."""
    m = sys.n_lines
    if m < 3:
        raise TooFewLines(f"need at least 3 lines, got {m}")
    edges = []
    for a, b, c in itertools.combinations(range(m), 3):
        if sys.masks[a] & sys.masks[b] & sys.masks[c] == 0:
            edges.append((a, b, c))
    pairs = [
        (a, b)
        for a, b in itertools.combinations(range(m), 2)
        if sys.masks[a] & sys.masks[b] == 0
    ]
    return ThreeHypergraph(m, frozenset(edges), frozenset(pairs))


# ---------------------------------------------------------------------------
# canonical labeling
# ---------------------------------------------------------------------------

def _refine(sys: LinearSystem, colors: tuple[int, ...]) -> tuple[int, ...]:
    """Equitable refinement of a point coloring given as dense ranks (the
    colors used are ``0..k-1``), returned as dense ranks.

    Alternates line signatures (multiset of endpoint colors) and point
    signatures (own color plus multiset of incident line signatures) until
    the partition stabilizes.  A round that splits no line class cannot
    split a point class either, and one that splits no point class leaves
    the ranks as they were, so either ends the loop, as does a discrete
    coloring.  Purely structural, hence invariant under relabeling.
    """
    lines, incident = sys.lines, sys.incidence
    ncls, nlcls = len(set(colors)), -1
    while ncls < len(colors):
        sigs = [tuple(sorted(map(colors.__getitem__, l))) for l in lines]
        classes = set(sigs)
        if len(classes) == nlcls:
            break
        nlcls = len(classes)
        lcol = list(map(dict(zip(sorted(classes), range(nlcls))).__getitem__, sigs))
        psig = [(c, tuple(sorted(map(lcol.__getitem__, ls)))) for c, ls in zip(colors, incident)]
        classes = set(psig)
        if len(classes) == ncls:
            break
        ncls = len(classes)
        colors = tuple(map(dict(zip(sorted(classes), range(ncls))).__getitem__, psig))
    return colors


def _individualize(colors: tuple[int, ...], v: int) -> tuple[int, ...]:
    """``v`` split off just above the rest of its class; ``colors`` are dense
    ranks."""
    cv = colors[v]
    out = [c + (c > cv) for c in colors]
    out[v] = cv + 1
    return tuple(out)


def _canonical_search(
    sys: LinearSystem, colors: Optional[tuple] = None, *, target: Optional[tuple] = None
) -> tuple:
    """Canonical encoding ``(n_points, lines)`` of ``sys`` itself, lines
    relabeled and sorted by (size, tuple); every canonical key, form and
    representative comes from this one search.

    Backtracks over the refinement tree from the point ``colors``, dense
    ranks as :func:`_refine` takes them (all 0 by default): repeatedly
    individualize each vertex of the first non-singleton color class,
    refine, and keep the lexicographically least relabeled line list among
    the discrete leaves.  A leaf equal to the best one gives an
    automorphism, which maps the path to that leaf onto the best leaf's
    path; the subtree below their last common node was searched already, so
    the search jumps back to that node.  A branch is skipped when it lies in
    the orbit of a tried one under the group that the kept automorphisms
    fixing the base generate (McKay & Piperno, "Practical graph isomorphism,
    II", 2014), and these automorphisms generate every color-preserving
    one.  Returns the encoding, the labeling (``p`` becomes ``lab[p]``) and
    the automorphisms ``sigma``; given a ``target`` encoding, it stops at
    the first leaf equal to it, with those found so far.
    """
    n, lines = sys.n_points, sys.lines
    best_enc: Optional[tuple] = None
    best_lab: Optional[tuple[int, ...]] = None
    best_base: tuple[int, ...] = ()
    autos: list[tuple[int, ...]] = []

    def encode(lab: tuple[int, ...]) -> tuple:
        relab = sorted(
            (tuple(sorted(map(lab.__getitem__, line))) for line in lines),
            key=lambda t: (len(t), t),
        )
        return (n, tuple(relab))

    def dfs(colors: tuple[int, ...], base: list[int]) -> int:
        """Searches below ``base`` and returns the depth of the node to go on
        from: ``len(base)`` or more to go on, less to jump back."""
        nonlocal best_enc, best_lab, best_base
        colors = _refine(sys, colors)
        count = [0] * n
        for c in colors:
            count[c] += 1
        cell = next((c for c, k in enumerate(count) if k > 1), None)
        if cell is None:
            enc = encode(colors)
            if best_enc is None or enc < best_enc:
                best_enc, best_lab, best_base = enc, colors, tuple(base)
                if enc == target:
                    return -1  # jumps back out of every level
            elif enc == best_enc:
                pos_to_point = [0] * n
                for p, c in enumerate(best_lab):
                    pos_to_point[c] = p
                sigma = tuple(map(pos_to_point.__getitem__, colors))
                if sigma not in autos:
                    autos.append(sigma)
                return next(i for i, (a, b) in enumerate(zip(base, best_base)) if a != b)
            return len(base)
        seen: set[int] = set()
        for v in [p for p, c in enumerate(colors) if c == cell]:
            if v in seen:
                continue
            base.append(v)
            depth = dfs(_individualize(colors, v), base)
            base.pop()
            if depth < len(base):
                return depth
            # the orbits of the tried branches under the kept generators fixing
            # the base; these only grow here, so closing ``seen`` is enough
            seen = _orbit(seen | {v}, [s for s in autos if all(s[b] == b for b in base)])
        return len(base)

    dfs(colors or (0,) * n, [])
    assert best_enc is not None and best_lab is not None
    return best_enc, best_lab, autos


def _image(g, points: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(g[p] for p in points))


def _orbit(items: Iterable, gens: list, image: Callable = getitem) -> set:
    """The union of the orbits of ``items`` under the group ``gens``
    generate, where ``image(g, x)`` is the image of ``x`` under ``g`` (by
    default ``g[x]``, a point under a permutation)."""
    seen = set(items)
    layer = set(seen)
    while layer:
        layer = {image(g, y) for y in layer for g in gens} - seen
        seen |= layer
    return seen


def _orbit_firsts(items: Iterable, gens: list, image: Callable) -> Iterator:
    """The first item of each orbit in ``items`` under the group ``gens``
    generate, with ``image`` as for :func:`_orbit`."""
    seen: set = set()
    for x in items:
        if x not in seen:
            yield x
            seen |= _orbit((x,), gens, image)


def _canonical_key(sys: LinearSystem) -> tuple:
    """Hashable isomorphism-class key: the canonical encoding of the
    low-degree-pruned system."""
    return _canonical_search(prune_low_degree(sys)[0])[0]


def canonical_relabel(sys: LinearSystem) -> LinearSystem:
    """The canonical representative of ``sys`` itself (no pruning): points are
    renamed by the canonical labeling and lines sorted by (size, tuple)."""
    return LinearSystem(*_canonical_search(sys)[0])


def canonical_form(sys: LinearSystem) -> CanonicalForm:
    """Deterministic label invariant under point and line relabeling, computed
    on the low-degree-pruned system."""
    n, lines = _canonical_key(sys)
    body = "|".join(",".join(str(p) for p in line) for line in lines)
    label = f"{n};{body}".encode("ascii")
    return CanonicalForm(label=label, pruned_sizes=(n, len(lines)))


def is_isomorphic(a: LinearSystem, b: LinearSystem) -> bool:
    """True iff the pruned systems admit an incidence-preserving point
    bijection inducing a bijection of lines.  Pairs that differ in point
    count, sorted line sizes or sorted degrees need no search; otherwise
    ``b``'s search stops at the first leaf equal to ``a``'s canonical
    encoding, its own canonical leaf if any."""
    pa, pb = prune_low_degree(a)[0], prune_low_degree(b)[0]
    # the degree list's length is the point count
    sizes = [(sorted(map(len, s.lines)), sorted(map(len, s.incidence))) for s in (pa, pb)]
    if sizes[0] != sizes[1]:
        return False
    key = _canonical_search(pa)[0]
    return _canonical_search(pb, target=key)[0] == key


# ---------------------------------------------------------------------------
# subsystem embedding
# ---------------------------------------------------------------------------

def embeds_as_subsystem(a: LinearSystem, b: LinearSystem) -> Optional[Embedding]:
    """Search for an embedding of ``a`` (pruned first) into ``b`` as a linear
    subsystem.

    Backtracks over injective point assignments, source points by decreasing
    degree and host points in ascending id order, each source point keeping
    a bitset domain of host points.  A domain starts as the host points of
    degree at least the number of source lines of size >= 2 through the
    point, as those lines need distinct host lines.  Assigning ``p -> t``
    removes ``t`` from every open domain, confines the open points of a line
    placed here first to the points collinear with ``t``, and when a line
    gets its host line ``j`` (its second placed point), confines its open
    points to ``j`` and every other open point to outside ``j``; an empty
    domain backtracks at once.  Each pruned value is one that plain
    backtracking in the same order would reject further down, so the first
    embedding found, the witness, is the same.  Returns None when there is
    none.
    """
    src, _ = prune_low_degree(a)
    na, nb = src.n_points, b.n_points
    if na > nb or src.n_lines > b.n_lines:
        return None

    pair_line = _pair_line_index(b)
    host_masks = b.masks
    host_lines_through = b.incidence
    src_incident = src.incidence
    src_masks = src.masks
    order = sorted(range(na), key=lambda p: (-len(src_incident[p]), p))
    # the host points sharing a line with each host point
    joined = [0] * nb
    for u, v in pair_line:
        joined[u] |= 1 << v
        joined[v] |= 1 << u
    need = [sum(len(src.lines[li]) >= 2 for li in src_incident[p]) for p in range(na)]
    fits = {d: _mask(t for t in range(nb) if len(host_lines_through[t]) >= d) for d in set(need)}
    domains = [fits[d] for d in need]
    if 0 in domains:
        return None

    mapping = [-1] * na
    host_of = [-1] * src.n_lines

    def finish() -> Optional[Embedding]:
        image = {mapping[p] for p in range(na)}
        line_map: dict[int, int] = {}
        for li, line in enumerate(src.lines):
            if host_of[li] != -1:
                line_map[li] = host_of[li]
                continue
            # single-point line: pick the first host line meeting the image
            # exactly at that point
            q = mapping[line[0]]
            pick = None
            for j in host_lines_through[q]:
                if all(hp == q or hp not in image for hp in b.lines[j]):
                    pick = j
                    break
            if pick is None:
                return None
            line_map[li] = pick
        return Embedding({p: mapping[p] for p in range(na)}, line_map)

    def assign(k: int, dom: list[int], placed: int, used: int) -> Optional[Embedding]:
        if k == na:
            return finish()
        p = order[k]
        pbit = 1 << p
        placed |= pbit
        rest = order[k + 1:]
        for t in _bits(dom[p]):
            new = [d & ~(1 << t) for d in dom]
            for li in src_incident[p]:
                on = src_masks[li] & placed
                if on == pbit:  # p is the first point placed on li
                    for u in _bits(src_masks[li] & ~placed):
                        new[u] &= joined[t]
                elif on.bit_count() == 2:  # li gets its host line j now
                    tq = mapping[(on ^ pbit).bit_length() - 1]
                    j = pair_line[(tq, t) if tq < t else (t, tq)]
                    hm = host_masks[j]
                    if hm & used != 1 << tq:  # j holds the image of a point off li
                        break
                    host_of[li] = j  # set anew on every path to finish: no undo
                    for u in rest:
                        new[u] &= hm if src_masks[li] >> u & 1 else ~hm
            else:  # no line clashed
                if all(new[u] for u in rest):
                    mapping[p] = t
                    found = assign(k + 1, new, placed, used | 1 << t)
                    if found is not None:
                        return found
        return None

    return assign(0, domains, 0, 0)


def validate_embedding(a: LinearSystem, b: LinearSystem, emb: Embedding) -> bool:
    """Recheck an embedding witness against the subsystem definition: the
    image of every candidate line must equal the host line restricted to the
    image of the candidate point set."""
    if not isinstance(emb, Embedding):
        return False
    src, _ = prune_low_degree(a)
    pm = emb.point_map
    if not (isinstance(pm, dict) and isinstance(emb.line_map, dict)):
        return False
    # True == 1 and 1.0 hashes as 1, but neither is an id
    if not all(map(_is_int, [*pm, *pm.values(), *emb.line_map, *emb.line_map.values()])):
        return False
    if set(pm) != set(range(src.n_points)):
        return False
    values = list(pm.values())
    if len(set(values)) != len(values):
        return False
    if any(v < 0 or v >= b.n_points for v in values):
        return False
    if set(emb.line_map) != set(range(src.n_lines)):
        return False
    image = set(values)
    for li, j in emb.line_map.items():
        if j < 0 or j >= b.n_lines:
            return False
        img = {pm[p] for p in src.lines[li]}
        if img != set(b.lines[j]) & image:
            return False
    return True
