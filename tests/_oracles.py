"""Slow, definition-direct oracles used only to cross-check the main code.

Everything here enumerates outright (permutations, injections, subdivision
searches) and must stay independent of the algorithms it validates.
"""

from __future__ import annotations

import itertools
import random
from typing import Optional

import networkx as nx

from linsys import LinearSystem, new_linear_system, prune_low_degree
from linsys.constructions import (
    GenerationExhausted,
    Triangle,
    _subsets,
    c_explicit,
    projective_plane,
)
from linsys.core import (
    Embedding,
    _canonical_key,
    _canonical_search,
    _is_int,
    _mask,
    _pair_line_index,
    _restrict,
    embeds_as_subsystem,
)
from linsys.planarity import (
    Graph,
    KuratowskiWitness,
    PlanarityVerdict,
    _decompose_subdivision,
)
from linsys.solvers import Certificate, two_packing_number


def brute_isomorphic(a: LinearSystem, b: LinearSystem, prune: bool = True) -> bool:
    """Exhaustive bijection search, on the pruned systems by default
    (matching the public isomorphism relation); <= 8 points."""
    pa = prune_low_degree(a)[0] if prune else a
    pb = prune_low_degree(b)[0] if prune else b
    if pa.n_points != pb.n_points or pa.n_lines != pb.n_lines:
        return False
    target = {frozenset(l) for l in pb.lines}
    for perm in itertools.permutations(range(pb.n_points)):
        mapped = {frozenset(perm[p] for p in line) for line in pa.lines}
        if mapped == target:
            return True
    return False


def brute_embeds(a: LinearSystem, b: LinearSystem) -> bool:
    """Exhaustive injection search for a linear-subsystem embedding of the
    pruned ``a`` into ``b``; only sensible for tiny systems."""
    src, _ = prune_low_degree(a)
    if src.n_points > b.n_points:
        return False
    host_sets = [set(line) for line in b.lines]
    for image in itertools.permutations(range(b.n_points), src.n_points):
        imgset = set(image)
        ok = True
        for line in src.lines:
            want = {image[p] for p in line}
            if not any(h & imgset == want for h in host_sets):
                ok = False
                break
        if ok:
            return True
    return False


def backtrack_embedding(a: LinearSystem, b: LinearSystem) -> Optional[Embedding]:
    """Reference for ``embeds_as_subsystem``: plain backtracking that tries
    every unused host point for each source point, in the same variable
    order ``(-deg, p)`` and ascending host order, with no domains and no
    forward check, so the first embedding it finds is the one the main code
    must return."""
    src, _ = prune_low_degree(a)
    na, nb = src.n_points, b.n_points
    if na > nb or src.n_lines > b.n_lines:
        return None
    if na == 0:
        return Embedding({}, {i: 0 for i in range(src.n_lines)}) if src.n_lines == 0 else None

    pair_line = _pair_line_index(b)
    host_masks = b.masks
    host_lines_through = b.incidence
    src_incident = src.incidence
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


def _adjacency(g: Graph) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(g.n_vertices)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _paths_between(adj, start, goal, blocked):
    """All simple paths start..goal whose internal vertices avoid ``blocked``."""
    out = []

    def walk(path, seen):
        cur = path[-1]
        for nxt in sorted(adj[cur]):
            if nxt == goal:
                out.append(path + [goal])
            elif nxt not in seen and nxt not in blocked:
                walk(path + [nxt], seen | {nxt})

    walk([start], {start})
    return out


def _pack_paths(adj, pairs, blocked, used):
    if not pairs:
        return True
    (u, v), rest = pairs[0], pairs[1:]
    for path in _paths_between(adj, u, v, blocked | used):
        internals = set(path[1:-1])
        if internals & used:
            continue
        if _pack_paths(adj, rest, blocked, used | internals):
            return True
    return False


def brute_planar(g: Graph) -> bool:
    """Planarity by exhaustive Kuratowski-subdivision search (<= 8 vertices):
    the graph is planar iff no K5 or K3,3 subdivision exists."""
    adj = _adjacency(g)
    verts = range(g.n_vertices)
    for branch in itertools.combinations(verts, 5):
        pairs = list(itertools.combinations(branch, 2))
        blocked = set(branch)
        if _pack_paths(adj, pairs, blocked, set()):
            return False
    for six in itertools.combinations(verts, 6):
        for left in itertools.combinations(six, 3):
            if six[0] not in left:
                continue  # fix one side to kill the mirrored split
            right = tuple(v for v in six if v not in left)
            pairs = [(u, v) for u in left for v in right]
            if _pack_paths(adj, pairs, set(six), set()):
                return False
    return True


def greedy_kuratowski_witness(g: Graph) -> KuratowskiWitness:
    """Reference for ``_kuratowski_witness``: the one-edge-at-a-time greedy
    pass, one networkx planarity test per edge of ``sorted(g.edges)``, each
    edge deleted when the graph stays non-planar without it.  Only the
    deletion differs from the main code; the split into branch vertices and
    paths is shared."""
    work = set(g.edges)
    for e in sorted(g.edges):
        trial = work - {e}
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n_vertices))
        nxg.add_edges_from(trial)
        if not nx.check_planarity(nxg)[0]:
            work = trial
    return _decompose_subdivision(work)


def rejection_sampler(
    n_points: int, n_lines: int, line_size_range: tuple[int, int], seed: int
) -> LinearSystem:
    """Reference for ``random_linear_system``: the plain rejection loop,
    which draws until it has ``n_lines`` lines or its budget runs out, with
    no test of whether a line can still fit."""
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


def brute_line_fits(
    n_points: int, lines: list[tuple[int, ...]], lo: int, hi: int
) -> bool:
    """Whether some set of ``lo`` to ``hi`` points is not a line and meets
    every line in at most one point, by trying every such set."""
    taken = set(lines)
    return any(
        pts not in taken and all(len(set(pts) & set(l)) <= 1 for l in lines)
        for size in range(lo, min(hi, n_points) + 1)
        for pts in itertools.combinations(range(n_points), size)
    )


def branch_and_bound_transversal(sys: LinearSystem) -> Certificate:
    """Reference for ``transversal_number``: the same bounds, branching line
    and witness pass, but the optimum comes from its own branch and bound
    started at a greedy upper bound, so the two must return equal
    certificates.

    Branch and bound: branch on an uncovered line of minimum size over its
    points; the upper bound comes from a greedy max-coverage start.  The
    admissible lower bound on the points still needed is the larger of two
    counts over the uncovered lines: a greedy set of pairwise disjoint ones
    (each needs its own point), and their number divided, rounded up, by the
    most of them any one point covers.  The second count is what prunes
    projective planes, where every two lines meet and the first is always 1.
    A second pass, pruned by the same bound, fixes the witness to the
    lexicographically least minimum transversal.
    """
    m = sys.n_lines
    if m == 0:
        return Certificate("transversal", (), 0)
    cover = [_mask(ls) for ls in sys.incidence]
    full = (1 << m) - 1
    line_sizes = [len(l) for l in sys.lines]

    # greedy upper bound
    unc = full
    ub = 0
    while unc:
        best_p, best_c = 0, -1
        for p in range(sys.n_points):
            c = (cover[p] & unc).bit_count()
            if c > best_c:
                best_p, best_c = p, c
        unc &= ~cover[best_p]
        ub += 1

    def disjoint_lb(uncovered: int) -> int:
        taken = 0
        cnt = 0
        rest = uncovered
        while rest:
            b = rest & -rest
            i = b.bit_length() - 1
            rest ^= b
            if sys.masks[i] & taken == 0:
                taken |= sys.masks[i]
                cnt += 1
        return cnt

    def lower_bound(uncovered: int) -> int:
        most = max((c & uncovered).bit_count() for c in cover)
        return max(disjoint_lb(uncovered), -(-uncovered.bit_count() // most))

    def pick_line(uncovered: int) -> int:
        best_i, best_s = -1, 1 << 30
        rest = uncovered
        while rest:
            b = rest & -rest
            i = b.bit_length() - 1
            rest ^= b
            if line_sizes[i] < best_s:
                best_i, best_s = i, line_sizes[i]
        return best_i

    best = ub

    def dfs(uncovered: int, depth: int) -> None:
        nonlocal best
        if uncovered == 0:
            if depth < best:
                best = depth
            return
        if depth + lower_bound(uncovered) >= best:
            return
        i = pick_line(uncovered)
        for p in sys.lines[i]:
            dfs(uncovered & ~cover[p], depth + 1)

    dfs(full, 0)
    tau = best

    def coverable(uncovered: int, budget: int, lo: int) -> bool:
        """Can the uncovered lines be hit with ``budget`` points of id >= lo?"""
        if uncovered == 0:
            return True
        if budget <= 0 or lower_bound(uncovered) > budget:
            return False
        i = pick_line(uncovered)
        for p in sys.lines[i]:
            if p >= lo and coverable(uncovered & ~cover[p], budget - 1, lo):
                return True
        return False

    members: list[int] = []
    unc = full
    for p in range(sys.n_points):
        if len(members) == tau:
            break
        if coverable(unc & ~cover[p], tau - len(members) - 1, p + 1):
            members.append(p)
            unc &= ~cover[p]
    assert unc == 0 and len(members) == tau
    return Certificate("transversal", tuple(members), tau)


def orderly_exhaustive_small(
    max_points: int, max_lines: int, size_range: tuple[int, int] = (2, 4)
) -> list[LinearSystem]:
    """Reference for ``exhaustive_small``: the same orderly extension with
    no orbit pruning, which tries every valid point set for each new line,
    so the two must return the same classes in the same order."""
    lo, hi = size_range
    hi = min(hi, max_points)
    empty = new_linear_system(0, [])
    out = [empty]
    frontier = [empty]
    for _ in range(max_lines):
        level: dict[tuple, LinearSystem] = {}
        for sys in frontier:
            cap = len(sys.lines[0]) if sys.lines else hi
            for size in range(lo, min(cap, hi) + 1):
                for reuse in range(0, size + 1):
                    fresh = size - reuse
                    if sys.n_points + fresh > max_points or reuse > sys.n_points:
                        continue
                    for base in itertools.combinations(range(sys.n_points), reuse):
                        bmask = _mask(base)
                        if any((bmask & m).bit_count() > 1 for m in sys.masks):
                            continue
                        newline = base + tuple(
                            range(sys.n_points, sys.n_points + fresh)
                        )
                        if fresh == 0 and newline in sys.lines:
                            continue
                        # valid by the checks above: no second validation
                        cand = LinearSystem(sys.n_points + fresh, sys.lines + (newline,))
                        key = _canonical_search(cand)[0]
                        if key not in level:
                            # keyed by rep's own tuples, so each class is held once
                            rep = new_linear_system(*key)
                            level[(rep.n_points, rep.lines)] = rep
        frontier = [level[k] for k in sorted(level)]
        out.extend(frontier)
    return out


def unpruned_c44_classes(
    tri: Triangle, line_sets: list[tuple[int, ...]]
) -> list[tuple[tuple[int, ...], tuple[int, ...], LinearSystem]]:
    """Reference for ``constructions._c44_classes``: the same loop with no
    orbit pruning, which tries every pair of added vertices and line set,
    so the two must return the same first member of each class."""
    pi3 = projective_plane(3).system
    base = set(range(pi3.n_points)) - set(tri.vertices)
    c_sys = c_explicit().system
    found: dict[tuple, tuple] = {}
    for added_pts in _subsets(tri.vertices):
        keep = base | set(added_pts)
        for chosen in line_sets:
            cand, _ = _restrict(pi3, keep, chosen)
            if two_packing_number(cand).value != 4:
                continue
            if embeds_as_subsystem(c_sys, cand) is None:
                continue
            key = _canonical_key(cand)
            if key not in found:
                found[key] = (added_pts, chosen, cand)
    return [found[k] for k in sorted(found)]


def automorphism_closure(gens: list[tuple[int, ...]], n: int) -> set[tuple[int, ...]]:
    """Every element of the group the point permutations ``gens`` generate,
    by breadth-first closure from the identity.  A generator that the group
    built so far already holds is skipped; each other one is kept, and the
    group is closed again under all kept ones."""
    group = {tuple(range(n))}
    kept: list[tuple[int, ...]] = []
    for g in gens:
        if g in group:
            continue
        kept.append(g)
        todo = list(group)
        while todo:
            h = todo.pop()
            for k in kept:
                kh = tuple(k[p] for p in h)
                if kh not in group:
                    group.add(kh)
                    todo.append(kh)
    return group


def brute_automorphisms(sys: LinearSystem) -> list[tuple[int, ...]]:
    """Every point permutation that maps the lines onto the lines, by trying
    all of them; <= 8 points."""
    target = set(sys.lines)
    return [
        perm for perm in itertools.permutations(range(sys.n_points))
        if {tuple(sorted(perm[p] for p in line)) for line in sys.lines} == target
    ]


def normalized_triples(q: int) -> list[tuple[int, int, int]]:
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


def scanned_plane(q: int) -> LinearSystem:
    """The plane of prime order ``q`` from :func:`normalized_triples`: one
    line per covector, through the points with zero dot product."""
    reps = normalized_triples(q)
    index = {v: i for i, v in enumerate(reps)}
    lines = []
    for cov in reps:
        pts = sorted(
            index[v] for v in reps if sum(a * b for a, b in zip(cov, v)) % q == 0
        )
        lines.append(pts)
    return new_linear_system(len(reps), lines)


def _plain_refine(n: int, lines: tuple[tuple[int, ...], ...], incident: list[list[int]],
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


def _plain_individualize(colors: tuple[int, ...], v: int) -> tuple[int, ...]:
    marked = [(c, 1 if p == v else 0) for p, c in enumerate(colors)]
    rank = {s: r for r, s in enumerate(sorted(set(marked)))}
    return tuple(rank[s] for s in marked)


def plain_canonical_search(sys: LinearSystem, colors: Optional[tuple] = None) -> tuple:
    """Reference for ``core._canonical_search``: the search as it was before
    orbit pruning, backjumping and the cheaper refinement rounds, kept to
    show that those change no encoding and no automorphism group.  Returns
    the canonical encoding ``(n_points, lines)`` of ``sys`` itself, lines
    relabeled and sorted by (size, tuple).

    Backtracks over the refinement tree from the point ``colors`` (all equal
    by default): repeatedly individualize each vertex of the first
    non-singleton color class, refine, and keep the lexicographically least
    relabeled line list among the discrete leaves.  Every automorphism found
    from equal leaves is kept and prunes the branches it maps onto tried
    ones, so they generate all color-preserving automorphisms.  Returns the
    encoding, the labeling (``p`` becomes ``lab[p]``) and these ``sigma``.
    """
    n, lines = sys.n_points, sys.lines
    if n == 0:
        return (0, ()), (), []
    incident = sys.incidence

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
        colors = _plain_refine(n, lines, incident, colors)
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
            dfs(_plain_individualize(colors, v), base)
            base.pop()
            tried.append(v)

    dfs(colors or (0,) * n, [])
    assert best_enc is not None and best_lab is not None
    return best_enc, best_lab, autos


# Reference certificate checker: Euler's formula checked per component, the
# components found by union-find, and K3,3 checked by pair degrees and sides.
# ``planarity.validate_verdict`` must agree with it on every certificate.

def _components(n: int, edges) -> list[set[int]]:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    comps: dict[int, set[int]] = {}
    for v in range(n):
        comps.setdefault(find(v), set()).add(v)
    return list(comps.values())


def _validate_embedding_euler(g: Graph, rotation: dict[int, tuple[int, ...]]) -> bool:
    """Face-trace the rotation system and check Euler's formula per connected
    component; genus zero is exactly what V - E + F = 2 certifies."""
    adj: dict[int, set[int]] = {v: set() for v in range(g.n_vertices)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    if not isinstance(rotation, dict) or rotation.keys() != adj.keys():
        return False
    succ: dict[tuple[int, int], tuple[int, int]] = {}
    for v, rot in rotation.items():
        if not (isinstance(rot, tuple) and all(map(_is_int, rot))):
            return False
        if set(rot) != adj[v] or len(rot) != len(adj[v]):
            return False
        d = len(rot)
        for i, u in enumerate(rot):
            # next dart of (u, v) in face traversal
            succ[(u, v)] = (v, rot[(i + 1) % d])
    comp_of: dict[int, int] = {}
    comps = _components(g.n_vertices, g.edges)
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    counted: set[tuple[int, int]] = set()
    face_count = [0] * len(comps)
    for dart in succ:
        if dart in counted:
            continue
        cur = dart
        while cur not in counted:
            counted.add(cur)
            cur = succ[cur]
        if cur != dart:
            return False  # darts must close into cycles
        face_count[comp_of[dart[0]]] += 1
    for ci, comp in enumerate(comps):
        e = sum(1 for u, v in g.edges if u in comp)
        if e == 0:
            continue  # isolated vertex, trivially planar
        if len(comp) - e + face_count[ci] != 2:
            return False
    return True


def _validate_witness(g: Graph, w: KuratowskiWitness) -> bool:
    if w.kind not in ("K5", "K33"):
        return False
    if not isinstance(w.branch_vertices, tuple) or not isinstance(w.paths, tuple):
        return False
    branch = list(w.branch_vertices)
    if not all(map(_is_int, branch)) or len(set(branch)) != len(branch):
        return False
    if any(not (0 <= b < g.n_vertices) for b in branch):
        return False
    expected_paths = {"K5": 10, "K33": 9}[w.kind]
    if len(w.paths) != expected_paths:
        return False
    if len(branch) != {"K5": 5, "K33": 6}[w.kind]:
        return False
    branch_set = set(branch)
    internal_seen: set[int] = set()
    pairs: set[tuple[int, int]] = set()
    for path in w.paths:
        if not (isinstance(path, tuple) and all(map(_is_int, path))):
            return False
        if len(path) < 2 or len(set(path)) != len(path):
            return False
        a, b = path[0], path[-1]
        if a not in branch_set or b not in branch_set:
            return False
        for u, v in zip(path, path[1:]):
            e = (u, v) if u < v else (v, u)
            if e not in g.edges:
                return False
        for v in path[1:-1]:
            if v in branch_set or v in internal_seen:
                return False
            internal_seen.add(v)
        pair = (a, b) if a < b else (b, a)
        if pair in pairs:
            return False
        pairs.add(pair)
    if w.kind == "K5":
        return pairs == set(itertools.combinations(sorted(branch), 2))
    # K33: pair graph must be 3-regular bipartite on 3+3 vertices
    deg = {b: 0 for b in branch}
    for a, b in pairs:
        deg[a] += 1
        deg[b] += 1
    if any(d != 3 for d in deg.values()):
        return False
    b0 = branch[0]
    side_a = {b0} | {b for b in branch if (min(b0, b), max(b0, b)) not in pairs and b != b0}
    side_b = set(branch) - side_a
    if len(side_a) != 3 or len(side_b) != 3:
        return False
    for a, b in pairs:
        if (a in side_a) == (b in side_a):
            return False
    return True


def reference_validate_verdict(g: Graph, v: PlanarityVerdict) -> bool:
    """Reference for ``planarity.validate_verdict``."""
    if v.planar:
        return v.embedding is not None and _validate_embedding_euler(g, v.embedding)
    return v.witness is not None and _validate_witness(g, v.witness)
