"""Finite point-line incidence structures where two lines meet in at most one point.

Points are dense integer ids ``0..n_points-1`` and lines are strictly sorted
tuples of point ids.  Structural edits (point/line deletion, induced
subsystems, low-degree pruning) return a fresh system together with the
old-id to new-id relabeling of the surviving points, so downstream bitset
encodings stay compact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional


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

    ``masks`` holds one point-bitmask per line so that intersection tests are
    O(1); it is derived from ``lines`` and excluded from equality.
    """

    n_points: int
    lines: tuple[tuple[int, ...], ...]
    masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "masks", tuple(_mask(l) for l in self.lines))

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
    bit = 1 << p
    return sum(1 for m in sys.masks if m & bit)


def _degree_counts(sys: LinearSystem) -> list[int]:
    """The degree of every point, indexed by point id."""
    counts = [0] * sys.n_points
    for line in sys.lines:
        for p in line:
            counts[p] += 1
    return counts


def _incidence(sys: LinearSystem) -> list[list[int]]:
    """The ascending indices of the lines through each point, indexed by
    point id."""
    incident: list[list[int]] = [[] for _ in range(sys.n_points)]
    for i, line in enumerate(sys.lines):
        for p in line:
            incident[p].append(i)
    return incident


def max_degree(sys: LinearSystem) -> int:
    """Largest point degree; 0 for a system without incidences."""
    return max(_degree_counts(sys), default=0)


def points_of_degree_at_least(sys: LinearSystem, k: int) -> frozenset[int]:
    return frozenset(p for p, c in enumerate(_degree_counts(sys)) if c >= k)


def lines_through(sys: LinearSystem, p: int) -> frozenset[int]:
    _check_point(sys, p)
    bit = 1 << p
    return frozenset(i for i, m in enumerate(sys.masks) if m & bit)


# ---------------------------------------------------------------------------
# structural reductions
# ---------------------------------------------------------------------------

def _from_residual_lines(residual: list[tuple[int, ...]]) -> tuple[LinearSystem, dict[int, int]]:
    """Build the system induced by residual lines (in old point ids).

    Empty residuals are dropped, equal residuals merged keeping first
    occurrence, and the ground set becomes exactly the covered points.
    Returns the new system and the old-to-new relabeling.
    """
    kept: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for line in residual:
        if not line or line in seen:
            continue
        seen.add(line)
        kept.append(line)
    covered = sorted({p for line in kept for p in line})
    relabel = {old: new for new, old in enumerate(covered)}
    new_lines = [tuple(relabel[p] for p in line) for line in kept]
    return new_linear_system(len(covered), new_lines), relabel


def delete_point(sys: LinearSystem, p: int) -> tuple[LinearSystem, dict[int, int]]:
    """System induced by the lines with ``p`` removed (ground set shrinks to
    the points the residual lines still cover)."""
    _check_point(sys, p)
    residual = [tuple(q for q in line if q != p) for line in sys.lines]
    return _from_residual_lines(residual)


def delete_line(sys: LinearSystem, l: int) -> tuple[LinearSystem, dict[int, int]]:
    """Induced subsystem on all lines except ``l``."""
    _check_line(sys, l)
    residual = [line for i, line in enumerate(sys.lines) if i != l]
    return _from_residual_lines(residual)


def induced_subsystem(
    sys: LinearSystem, line_subset: Iterable[int]
) -> tuple[LinearSystem, dict[int, int]]:
    """Subsystem on exactly the points covered by the chosen lines."""
    chosen = sorted(set(line_subset))
    for l in chosen:
        _check_line(sys, l)
    residual = [sys.lines[l] for l in chosen]
    return _from_residual_lines(residual)


def prune_low_degree(sys: LinearSystem) -> tuple[LinearSystem, dict[int, int]]:
    """Remove every point of degree <= 1 in a single pass.

    Removal of a degree-0/1 point cannot lower any other point's degree, so a
    single sweep suffices; lines shrink accordingly and emptied lines are
    dropped.
    """
    counts = _degree_counts(sys)
    keepset = {p for p in range(sys.n_points) if counts[p] >= 2}
    residual = [tuple(q for q in line if q in keepset) for line in sys.lines]
    return _from_residual_lines(residual)


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

def _refine(n: int, lines: tuple[tuple[int, ...], ...], incident: list[list[int]],
            colors: tuple[int, ...]) -> tuple[int, ...]:
    """Equitable refinement of a point coloring.

    Alternates line signatures (multiset of endpoint colors) and point
    signatures (own color plus multiset of incident line signatures) until
    the partition stabilizes.  Purely structural, hence invariant under
    relabeling.
    """
    ncls = len(set(colors))
    while True:
        sigs = [tuple(sorted(colors[p] for p in l)) for l in lines]
        lrank = {s: r for r, s in enumerate(sorted(set(sigs)))}
        lcol = [lrank[s] for s in sigs]
        psig = [
            (colors[p], tuple(sorted(lcol[i] for i in incident[p])))
            for p in range(n)
        ]
        prank = {s: r for r, s in enumerate(sorted(set(psig)))}
        new = tuple(prank[psig[p]] for p in range(n))
        k = len(prank)
        if k == ncls:
            return new
        colors, ncls = new, k


def _individualize(colors: tuple[int, ...], v: int) -> tuple[int, ...]:
    marked = [(c, 1 if p == v else 0) for p, c in enumerate(colors)]
    rank = {s: r for r, s in enumerate(sorted(set(marked)))}
    return tuple(rank[s] for s in marked)


def _canonical_search(sys: LinearSystem) -> tuple:
    """Canonical encoding ``(n_points, lines)`` of ``sys`` itself, lines
    relabeled and sorted by (size, tuple); every canonical key, form and
    representative comes from this one search.

    Backtracks over the refinement tree: repeatedly individualize each vertex
    of the first non-singleton color class, refine, and keep the
    lexicographically least relabeled line list among the discrete leaves.
    Every automorphism found from equal leaves is kept and prunes the
    branches it maps onto tried ones.
    """
    n, lines = sys.n_points, sys.lines
    if n == 0:
        return (0, ())
    incident = _incidence(sys)

    best_enc: Optional[tuple] = None
    best_lab: Optional[tuple[int, ...]] = None
    autos: list[tuple[int, ...]] = []
    identity = tuple(range(n))

    def encode(lab: tuple[int, ...]) -> tuple:
        relab = sorted(
            (tuple(sorted(lab[p] for p in line)) for line in lines),
            key=lambda t: (len(t), t),
        )
        return (n, tuple(relab))

    def dfs(colors: tuple[int, ...], base: list[int]) -> None:
        nonlocal best_enc, best_lab
        colors = _refine(n, lines, incident, colors)
        cells: dict[int, list[int]] = {}
        for p, c in enumerate(colors):
            cells.setdefault(c, []).append(p)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            enc = encode(colors)
            if best_enc is None or enc < best_enc:
                best_enc, best_lab = enc, colors
            elif enc == best_enc:
                pos_to_point = [0] * n
                for p, c in enumerate(best_lab):
                    pos_to_point[c] = p
                sigma = tuple(pos_to_point[colors[p]] for p in range(n))
                if sigma != identity and sigma not in autos:
                    autos.append(sigma)
            return
        tried: list[int] = []
        for v in target:
            redundant = False
            for sigma in autos:
                if all(sigma[b] == b for b in base) and any(sigma[u] == v for u in tried):
                    redundant = True
                    break
            if redundant:
                continue
            base.append(v)
            dfs(_individualize(colors, v), base)
            base.pop()
            tried.append(v)

    dfs(tuple(0 for _ in range(n)), [])
    assert best_enc is not None
    return best_enc


def _canonical_key(sys: LinearSystem) -> tuple:
    """Hashable isomorphism-class key: the canonical encoding of the
    low-degree-pruned system."""
    return _canonical_search(prune_low_degree(sys)[0])


def canonical_relabel(sys: LinearSystem) -> LinearSystem:
    """The canonical representative of ``sys`` itself (no pruning): points are
    renamed by the canonical labeling and lines sorted by (size, tuple)."""
    return new_linear_system(*_canonical_search(sys))


def canonical_form(sys: LinearSystem) -> CanonicalForm:
    """Deterministic label invariant under point and line relabeling, computed
    on the low-degree-pruned system."""
    n, lines = _canonical_key(sys)
    body = "|".join(",".join(str(p) for p in line) for line in lines)
    label = f"{n};{body}".encode("ascii")
    return CanonicalForm(label=label, pruned_sizes=(n, len(lines)))


def is_isomorphic(a: LinearSystem, b: LinearSystem) -> bool:
    """True iff the pruned systems admit an incidence-preserving point
    bijection inducing a bijection of lines."""
    return _canonical_key(a) == _canonical_key(b)


# ---------------------------------------------------------------------------
# subsystem embedding
# ---------------------------------------------------------------------------

def embeds_as_subsystem(a: LinearSystem, b: LinearSystem) -> Optional[Embedding]:
    """Search for an embedding of ``a`` (pruned first) into ``b`` as a linear
    subsystem.

    Backtracks over injective point assignments; candidate target points are
    tried in ascending id order so the returned witness is deterministic.
    Returns None when no embedding exists.
    """
    src, _ = prune_low_degree(a)
    na, nb = src.n_points, b.n_points
    if na > nb or src.n_lines > b.n_lines:
        return None
    if na == 0:
        return Embedding({}, {i: 0 for i in range(src.n_lines)}) if src.n_lines == 0 else None

    pair_line = _pair_line_index(b)
    host_masks = b.masks
    host_lines_through = _incidence(b)
    src_incident = _incidence(src)
    src_linesets = [set(line) for line in src.lines]
    deg = [len(src_incident[p]) for p in range(na)]
    order = sorted(range(na), key=lambda p: (-deg[p], p))

    mapping = [-1] * na
    target_of: dict[int, int] = {}  # host point -> src point
    host_of = [-1] * src.n_lines
    used = 0

    def candidate_ok(p: int, t: int) -> Optional[list[tuple[int, int]]]:
        """Check assigning src point p to host point t; return newly
        determined (src line, host line) pairs, or None on conflict."""
        determined: list[tuple[int, int]] = []
        tbit = 1 << t
        for li in src_incident[p]:
            imgs = [mapping[u] for u in src.lines[li] if mapping[u] != -1]
            if host_of[li] != -1:
                if not (host_masks[host_of[li]] & tbit):
                    return None
            elif imgs:
                q = imgs[0]
                key = (q, t) if q < t else (t, q)
                j = pair_line.get(key)
                if j is None:
                    return None
                # a freshly determined host must avoid images of outside points
                for hp in b.lines[j]:
                    w = target_of.get(hp)
                    if w is not None and w not in src_linesets[li]:
                        return None
                determined.append((li, j))
        for li in range(src.n_lines):
            if host_of[li] != -1 and p not in src_linesets[li]:
                if host_masks[host_of[li]] & tbit:
                    return None
        return determined

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

    def assign(k: int) -> Optional[Embedding]:
        nonlocal used
        if k == na:
            return finish()
        p = order[k]
        for t in range(nb):
            tbit = 1 << t
            if used & tbit:
                continue
            determined = candidate_ok(p, t)
            if determined is None:
                continue
            mapping[p] = t
            target_of[t] = p
            used |= tbit
            for li, j in determined:
                host_of[li] = j
            found = assign(k + 1)
            if found is not None:
                return found
            for li, _ in determined:
                host_of[li] = -1
            used ^= tbit
            del target_of[t]
            mapping[p] = -1
        return None

    return assign(0)


def validate_embedding(a: LinearSystem, b: LinearSystem, emb: Embedding) -> bool:
    """Recheck an embedding witness against the subsystem definition: the
    image of every candidate line must equal the host line restricted to the
    image of the candidate point set."""
    src, _ = prune_low_degree(a)
    pm = emb.point_map
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
