"""Good families, transversality checks, and regular-value probes.

A family selects per player some coordinate hyperplanes (label set T^i,
with inf naming the hyperplane at infinity) and some payoff-difference
hypersurfaces (own-strategy pair set R^i). The family is good when every
pair graph is a forest; good families are the ones whose transversality
generic payoffs guarantee.

Transversality at a point is checked through the stacked Jacobian of
the defining maps of the hypersurfaces that contain the point, each
payoff-difference row in its player's payoff unit: full rank means
transversal. An equilibrium's canonical square family is transversal
iff the family's face system in chart (0, ..., 0) has a nonsingular
Jacobian there (rank_split_equivalence_test);
equilibrium.certify_equilibrium checks the latter.

An equilibrium of a support and a root of a regular-value probe are the
same kind of object: a common zero of a family's payoff-difference
hypersurfaces on the face its coordinate hyperplanes cut out in a chart
(an equilibrium's: its canonical family in chart (0, ..., 0), unknowns
the weights on supp[1:], rows slope(supp[0]) - slope(t)).
_family_system builds that system for both, and _newton_roots, a damped
least-squares multistart Newton loop, finds its roots from the caller's
starts. The starts iterate together, one batched Jacobian and
pseudo-inverse per step, and one residual call per step covers the
NEWTON_HALVINGS step lengths of the line search for every start, each
start taking its own first accepted step length and keeping its own
stopping rule; a start that none of them helps has stalled. The
equations are in each player's payoff unit
(FiniteGame.payoff_exponents), so the loop's tolerances (from the table
in nashatlas.game) act the same at every payoff scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atlas import (
    INF,
    ChartPoint,
    Coordinate,
    Hypersurface,
    PayoffDiff,
    _check_in_chart,
    _validate_chart,
    _validate_coords,
    _validate_hypersurface,
    chart_excludes,
    defining_map,
    on_hypersurface,
)
from .forms import MultilinearForm, _basis_matrix, _contract_axis, contract
from .game import (
    DEDUP_TOL,
    NEWTON_HALVINGS,
    NEWTON_MAX_ITERS,
    RANDOM_STARTS,
    RANK_TOL,
    RESIDUAL_TOL,
    STEP_TOL,
    FiniteGame,
    SupportProfile,
    _integral,
)


@dataclass(frozen=True)
class GoodFamily:
    """Per player: coordinate labels T^i (ints or INF) and strategy
    pairs R^i with j < k."""

    T: tuple[tuple, ...]
    R: tuple[tuple[tuple[int, int], ...], ...]

    def hypersurfaces(self) -> list[Hypersurface]:
        out: list[Hypersurface] = []
        for i, labels in enumerate(self.T):
            out.extend(Coordinate(i, t) for t in labels)
        for i, pairs in enumerate(self.R):
            out.extend(PayoffDiff(i, pair) for pair in pairs)
        return out

    @property
    def num_pairs(self) -> int:
        return sum(len(p) for p in self.R)


def _family_members(game: FiniteGame, family: GoodFamily) -> list[Hypersurface]:
    """The family's hypersurfaces, once it has one T and one R entry per
    player and each member is a hypersurface of the game."""
    if not len(family.T) == len(family.R) == game.num_players:
        raise ValueError("family needs one T and one R entry per player")
    members = family.hypersurfaces()
    for h in members:
        _validate_hypersurface(game, h)
    return members


def good_family(game: FiniteGame, T=None, R=None) -> GoodFamily:
    """Validated family (_family_members), labels and pairs sorted and
    deduplicated per player; a missing T or R selects nothing, and a
    label or pair entry that is not an integer is a ValueError."""
    empty = [()] * game.num_players
    T = empty if T is None else T
    R = empty if R is None else R
    family = GoodFamily(
        tuple(tuple(sorted({t if t == INF else _integral(t, "coordinate label") for t in ts},
                           key=float)) for ts in T),
        tuple(tuple(sorted({(_integral(j, "pair entry"), _integral(k, "pair entry"))
                            for j, k in ps})) for ps in R),
    )
    _family_members(game, family)
    return family


def _find_cycle(edges) -> list[int] | None:
    """A vertex cycle of the undirected graph given by the edge pairs,
    or None when the graph is a forest. Grows a spanning forest edge by
    edge; the first edge joining two already-connected vertices closes
    a cycle, recovered as the forest path between its endpoints."""
    adj: dict[int, list[int]] = {}
    for j, k in edges:
        if k in adj.get(j, ()):
            continue  # parallel edge cannot occur with set input
        if j in adj and k in adj:
            path = _forest_path(adj, j, k)
            if path is not None:
                return path
        adj.setdefault(j, []).append(k)
        adj.setdefault(k, []).append(j)
    return None


def _forest_path(adj, start: int, goal: int) -> list[int] | None:
    prev = {start: None}
    queue = [start]
    while queue:
        v = queue.pop(0)
        if v == goal:
            path = [v]
            while prev[path[-1]] is not None:
                path.append(prev[path[-1]])
            return path[::-1]
        for w in adj.get(v, ()):
            if w not in prev:
                prev[w] = v
                queue.append(w)
    return None


def is_good(family: GoodFamily) -> bool:
    """Forest condition per player: no pair graph has a cycle."""
    return witness_cycle(family) is None


def witness_cycle(family: GoodFamily) -> tuple[int, list[int]] | None:
    """(player, cycle vertices) for some non-forest player, else None."""
    for i, pairs in enumerate(family.R):
        cycle = _find_cycle(pairs)
        if cycle is not None:
            return i, cycle
    return None


@dataclass(frozen=True)
class TransversalityReport:
    chart: tuple[int, ...]
    point: ChartPoint
    active: tuple[Hypersurface, ...]
    jacobian: np.ndarray
    rank: int
    smallest_singular_value: float
    verdict: str  # "transversal" or "degenerate"


def _coord_offsets(game: FiniteGame) -> tuple[list[int], int]:
    offsets, total = [], 0
    for c in game.strategy_counts:
        offsets.append(total)
        total += c - 1
    return offsets, total


def full_gradient(game: FiniteGame, form: MultilinearForm, point: ChartPoint) -> np.ndarray:
    """Gradient of a chart-local form with respect to all chart
    coordinates, zero on blocks the form does not read."""
    offsets, total = _coord_offsets(game)
    out = np.zeros(total)
    inputs = [point.coords[b] for b in form.blocks]
    for b in form.blocks:
        grad = form.grad(inputs, b)
        out[offsets[b]: offsets[b] + len(grad)] = grad
    return out


def _svd_rank(matrix: np.ndarray) -> tuple[int, float]:
    """(rank, smallest sv) with the scale-relative cutoff."""
    if matrix.size == 0:
        return 0, math.inf
    sv = np.linalg.svd(matrix, compute_uv=False)
    cutoff = RANK_TOL * max(1.0, float(sv[0]))
    return int(np.sum(sv > cutoff)), float(sv[-1])


def _inf_norm(v):
    """Max-abs norm over the last axis: a float for one vector, an array
    for a stack of them."""
    return np.abs(v).max(axis=-1, initial=0.0)


def _newton_roots(residual, jacobian, starts, accept=None) -> list[np.ndarray]:
    """Damped least-squares Newton from every start, all starts at once.

    The starts iterate together as the rows of one (B, n) array: residual
    and jacobian take a stack of rows and return (B, n_eq) and
    (B, n_eq, n). Each step solves jacobian(x) step = -residual(x) in the
    least-squares sense and tries the lengths t = 2^-r, r = 0 ..
    NEWTON_HALVINGS - 1: the trial points of every live start and every
    halving go to residual as one stack, and each start takes its first t
    whose residual norm is at most (1 - t/4) times the current one. So a
    step costs one residual and one jacobian call. Every start keeps its
    own stopping rule: it stops once its residual is within RESIDUAL_TOL,
    its step is below STEP_TOL, no length passes (the start has stalled;
    near a regular root the full step passes) or NEWTON_MAX_ITERS steps
    are taken. `accept` takes the (k, n) stack of converged limits and
    returns a mask of those to keep; the kept limits come back
    deduplicated at DEDUP_TOL, in start order.
    """
    x = np.array(starts, dtype=float)
    f = residual(x)
    live = np.arange(len(x))
    t = 0.5 ** np.arange(NEWTON_HALVINGS)
    for _ in range(NEWTON_MAX_ITERS):
        live = live[_inf_norm(f[live]) > RESIDUAL_TOL]
        if not live.size:
            break
        # minimum-norm least-squares steps with np.linalg.lstsq's cutoff
        jac = jacobian(x[live])
        rcond = np.finfo(float).eps * max(jac.shape[-2:])
        step = (np.linalg.pinv(jac, rcond=rcond) @ -f[live][..., None])[..., 0]
        moving = _inf_norm(step) > STEP_TOL
        live, step = live[moving], step[moving]
        if not live.size:
            break
        # (L, NEWTON_HALVINGS, n) trial points, halving r of start l in row (l, r)
        xn = x[live][:, None] + t[:, None] * step[:, None]
        fn = residual(xn.reshape(-1, x.shape[1])).reshape(len(live), len(t), -1)
        norm0 = np.linalg.norm(f[live], axis=1)[:, None]
        ok = np.linalg.norm(fn, axis=2) <= (1.0 - 0.25 * t) * norm0
        passed = ok.any(axis=1)
        live, first = live[passed], ok[passed].argmax(axis=1)
        x[live], f[live] = xn[passed, first], fn[passed, first]
    keep = _inf_norm(f) <= RESIDUAL_TOL
    if accept is not None:
        keep[keep] = accept(x[keep])
    roots: list[np.ndarray] = []
    for xb in x[keep]:
        if all(_inf_norm(xb - r) > DEDUP_TOL for r in roots):
            roots.append(xb)
    return roots


def _face_system(game: FiniteGame, pairs, maps):
    """The payoff-difference system restricted to a coordinate face.

    maps[b] is a (c_b, 1 + d_b) matrix taking (1, z_b) to player b's
    weights, and z concatenates the z_b. Player i's equations are
    slope_j - slope_k, (j, k) in pairs[i]: its payoffs contracted on axis
    i with the integer columns e_j - e_k (so taken before rounding), as
    float, in its payoff unit, and composed with the other players' maps
    once. Returns residual(z), one contraction per player with
    equations; jacobian(z), whose block (i, q) is the contraction keeping
    axes i and q minus its constant column; and vectors(z), the per-player
    (1, z_b). Each takes one point z of shape (n,) or a stack of B points
    of shape (B, n), and then puts the batch axis first in its results.
    """
    m = len(maps)
    dims = [a.shape[1] - 1 for a in maps]
    ends = np.cumsum(dims)
    system = []
    for i, (u, own) in enumerate(zip(game.utilities, pairs)):
        if not own:
            continue
        eye = np.eye(game.strategy_counts[i], dtype=int)
        cols = eye[:, [j for j, _ in own]] - eye[:, [k for _, k in own]]
        t = np.ldexp(np.asarray(_contract_axis(u, cols, i), dtype=float),
                     -game.payoff_exponents[i])
        for b in range(m):
            if b != i:
                t = _contract_axis(t, maps[b], b)
        system.append((i, t))

    def vectors(z):
        one = np.ones(z.shape[:-1] + (1,))
        return [np.concatenate((one, z[..., e - d: e]), axis=-1) for d, e in zip(dims, ends)]

    eq_bounds = np.cumsum([0] + [t.shape[i] for i, t in system])

    def residual(z):
        v = vectors(z)
        out = np.empty(z.shape[:-1] + (eq_bounds[-1],))
        for (i, t), lo, hi in zip(system, eq_bounds, eq_bounds[1:]):
            # with one player nothing is contracted: the block is constant
            # and broadcasts over the batch axis
            out[..., lo:hi] = contract(t, [None if b == i else v[b] for b in range(m)])
        return out

    def jacobian(z):
        v = vectors(z)
        rows = []
        for i, t in system:
            row = np.zeros(z.shape[:-1] + (t.shape[i], z.shape[-1]))
            for q in range(m):
                if q == i or not dims[q]:
                    continue
                c = contract(t, [None if b in (i, q) else v[b] for b in range(m)])
                c = np.swapaxes(c, -1, -2) if q < i else c
                # with two players the block is constant and broadcasts
                row[..., ends[q] - dims[q]: ends[q]] = c[..., 1:]
            rows.append(row)
        return np.concatenate(rows, axis=-2)

    return residual, jacobian, vectors


def transversal_at(
    game: FiniteGame,
    family: GoodFamily,
    point: ChartPoint,
    active: list[Hypersurface] | None = None,
) -> TransversalityReport:
    """Transversality of the family at one chart point.

    The point (its chart and coordinates), and the family unless
    `active` is given, are checked against the game first. Hypersurfaces
    not containing the point are ignored; those the chart excludes cannot
    contain it and are skipped, and one listed twice raises ValueError.
    Pass `active` to pin the active set instead of detecting it by
    membership (where activity is known, as for an equilibrium's
    canonical family). Verdict is transversal iff the stacked Jacobian
    (payoff-difference rows in payoff units) has full row rank.
    """
    chart = _validate_chart(game, point.chart)
    _validate_coords(game, point.coords)
    if active is None:
        members = [h for h in _family_members(game, family) if not chart_excludes(chart, h)]
        _check_in_chart(game, members, chart)
        active = [h for h in members if on_hypersurface(game, h, point)]
    else:
        _check_in_chart(game, active, chart)
    total = _coord_offsets(game)[1]
    rows = [np.ldexp(full_gradient(game, defining_map(game, h, chart), point),
                     -game.payoff_exponents[h.player] if isinstance(h, PayoffDiff) else 0)
            for h in active]
    jac = np.array(rows, dtype=float) if rows else np.zeros((0, total))
    rank, smin = _svd_rank(jac)
    verdict = "transversal" if rank == len(active) else "degenerate"
    return TransversalityReport(
        chart=chart,
        point=point,
        active=tuple(active),
        jacobian=jac,
        rank=rank,
        smallest_singular_value=smin,
        verdict=verdict,
    )


def canonical_equilibrium_family(game: FiniteGame, support: SupportProfile) -> GoodFamily:
    """Off-support coordinate hyperplanes plus the star of in-support
    slope equalities; its size is the chart dimension, so the Jacobian
    at an equilibrium is square."""
    T, R = [], []
    for i, supp in enumerate(support.supports):
        T.append(tuple(j for j in range(game.strategy_counts[i]) if j not in supp))
        jstar = supp[0]
        R.append(tuple((jstar, j) for j in supp[1:]))
    return GoodFamily(tuple(T), tuple(R))


@dataclass(frozen=True)
class ProbeRoot:
    point: ChartPoint
    residual: float
    rank: int
    regular: bool


@dataclass(frozen=True)
class ProbeReport:
    chart: tuple[int, ...]
    family: GoodFamily
    dimension: int
    num_equations: int
    empty_face: bool
    roots: tuple[ProbeRoot, ...]
    verdict: str  # "regular" (all witnessed roots regular, or none) / "degenerate"


def _face_maps(game: FiniteGame, family: GoodFamily, chart):
    """Per player the (c_b, 1 + d_b) matrix taking (1, z_b) to the full
    tilde vector of the face cut out by the T^b coordinate constraints,
    chart slot included. Returns None when the face misses the chart."""
    maps = []
    for i, labels in enumerate(family.T):
        c, l = game.strategy_counts[i], chart[i]
        fixed, affine = {l}, False
        for t in labels:
            if t == 0:
                affine = True
            else:
                fixed.add(0 if t == INF else int(t))
        free = [s for s in range(c) if s not in fixed]
        a = np.zeros((c, 1 + len(free)))
        a[l, 0] = 1.0
        a[free, 1 + np.arange(len(free))] = 1.0
        if affine:
            # the zeroth-weight hyperplane tilde_0 - sum_{j>=1} tilde_j = 0,
            # solved for the first free slot; the pinned slot gives +-1
            if not free:
                return None
            g = _basis_matrix(c, False)[0]
            a[free[0]] = -(g @ a) / g[free[0]]
            a = np.delete(a, 1, axis=1)
        maps.append(a)
    return maps


def _family_system(game: FiniteGame, family: GoodFamily, chart):
    """The family's system on its face in the chart: _face_maps' maps
    ((1, z_b) -> tilde), turned into weights by forms._basis_matrix's M
    (gamma_0 = tilde_0 - sum_{j>=1} tilde_j, gamma_j = tilde_j), go to
    _face_system. Returns its residual, jacobian and vectors, the face
    maps and the weight maps; None when the face misses the chart."""
    maps = _face_maps(game, family, chart)
    if maps is None:
        return None
    weights = [_basis_matrix(len(a), False) @ a for a in maps]
    return (*_face_system(game, family.R, weights), maps, weights)


def regular_value_probe(
    game: FiniteGame,
    family: GoodFamily,
    chart,
    seed: int = 0,
) -> ProbeReport:
    """Hunt roots of the family's payoff-difference system on the face
    cut out by its coordinate constraints, and check that every found
    root is a regular point (full-rank Jacobian of the restricted map).

    The equations are the PayoffDiff(i, pair) defining maps of
    atlas.defining_map, formed by _family_system. A root's residual is
    the largest absolute value of those maps there: in the game's own
    payoffs, not in payoff units, so it scales with the payoffs. An
    empty root set is a regular outcome; the probe only ever witnesses
    degeneracy, it cannot prove its absence.
    """
    chart = _check_in_chart(game, _family_members(game, family), chart)
    if not is_good(family):
        raise ValueError("family is not good (some pair graph has a cycle)")
    if family.num_pairs == 0:
        raise ValueError("family has no payoff-difference pairs to probe")
    face = _family_system(game, family, chart)
    if face is None:
        return ProbeReport(chart, family, 0, family.num_pairs, True, (), "regular")
    residual, jacobian, vectors, maps, _ = face
    total_dim = sum(a.shape[1] - 1 for a in maps)
    num_eq = family.num_pairs

    def point_of(z) -> ChartPoint:
        return ChartPoint(chart, tuple(
            np.delete(a @ v, l) for a, v, l in zip(maps, vectors(z), chart)
        ))

    rng = np.random.default_rng(seed)
    starts = np.vstack([np.zeros(total_dim), rng.normal(0.0, 1.0, (RANDOM_STARTS, total_dim))])
    roots = _newton_roots(residual, jacobian, starts)
    roots = np.array(roots).reshape(len(roots), total_dim)
    # each equation's residual (in payoff units) times its player's unit 2^e_i
    exponents = np.repeat(game.payoff_exponents, [len(pairs) for pairs in family.R])
    residuals = _inf_norm(np.ldexp(residual(roots), exponents))

    out_roots = []
    all_regular = True
    for z, jac, res in zip(roots, jacobian(roots), residuals):
        rank = _svd_rank(jac)[0]
        regular = rank == num_eq
        all_regular = all_regular and regular
        out_roots.append(
            ProbeRoot(point=point_of(z), residual=float(res), rank=rank, regular=regular)
        )
    return ProbeReport(
        chart=chart,
        family=family,
        dimension=total_dim,
        num_equations=num_eq,
        empty_face=False,
        roots=tuple(out_roots),
        verdict="regular" if all_regular else "degenerate",
    )


def rank_split_equivalence_test(full_jacobian, coordinate_block_size: int) -> bool:
    """Check that full rank of the stacked matrix is equivalent to full
    rank of the lower block restricted to the kernel of the (full-rank)
    coordinate block. Must hold whenever the first rows have full rank;
    returning False would falsify the block-triangular rank argument."""
    a = np.asarray(full_jacobian, dtype=float)
    b = int(coordinate_block_size)
    total = a.shape[0]
    cond_full = _svd_rank(a)[0] == total
    if b == 0:
        kernel = np.eye(a.shape[1])
    else:
        top = a[:b]
        rank_top = _svd_rank(top)[0]
        kernel = np.linalg.svd(top)[2][rank_top:].T
    lower = a[b:] @ kernel
    cond_split = _svd_rank(lower)[0] == total - b
    return cond_full == cond_split
