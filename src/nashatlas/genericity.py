"""Good families, transversality checks, and regular-value probes.

A family selects per player some coordinate hyperplanes (label set T^i,
with inf naming the hyperplane at infinity) and some payoff-difference
hypersurfaces (own-strategy pair set R^i). The family is good when every
pair graph is a forest; good families are the ones whose transversality
generic payoffs guarantee.

Transversality at a point is checked through the stacked Jacobian of
the defining maps of the hypersurfaces that contain the point
(full_gradient), each payoff-difference row the face system's (below),
in its player's payoff unit taken exactly: full rank means
transversal. An equilibrium's canonical square family is transversal
iff the family's face system in chart (0, ..., 0) has a nonsingular
Jacobian there: the coordinate rows are unit rows of full rank, so the
stack has full rank iff the face rows have on their kernel (a
block-triangular rank argument, which acceptance criterion 7 checks);
equilibrium.certify_equilibrium checks the latter.

An equilibrium of a support and a root of a regular-value probe are the
same kind of object: a common zero of a family's payoff-difference
hypersurfaces on the face its coordinate hyperplanes cut out in a chart
(an equilibrium's: its canonical family in chart (0, ..., 0), unknowns
the weights on supp[1:], rows slope(supp[0]) - slope(t)). The probe,
equilibrium's Newton solve and its certificate reach it one way,
_face_plan then _face_system, and _newton_roots, a damped multistart
Newton loop, finds its roots from the caller's starts. Every equation is
multilinear in the blocks (1, z_b), so _face_system holds the system as
one coefficient matrix over the Segre monomials of the blocks, and its
Jacobian too (the coefficients of each derivative, placed at the
monomials that do not involve the block differentiated by): the
residuals and Jacobians of a stack of points are one gather of the
monomials and one matrix product, and a lone point is evaluated as a
row of a stack, so its bits do not depend on the stack.

What does not depend on the payoffs is built once and kept. A face plan
(_face_plan), one per (strategy counts, family, chart), is built for a
chart and a family already checked (the probe checks a family once per
key, _check_family) and holds the face and weight maps and, per
equation player, the payoff indices of its pairs and its einsum layout;
a Segre table (_segre_tables), one per (block sizes, equations per
player), holds the monomial gather table and the index that takes the
matrix [C | K_J] from the players' coefficients in one take. So a call
on a kept plan does only payoff arithmetic: per equation player two
takes, a difference, the unit scaling and one einsum, then that one
take. Each cache keeps its FACE_PLANS (1024) most recently used keys. A
plan takes 3-4 kB for shapes up to 3x3x3, so 1024 of them about 4 MB; a
table's largest array, the take index, has prod(1 + d_b) * n_eq * (1 +
n) entries (32 kB for a full 6x6 support, 105 kB for 8x8), and tables
are few (11 serve all 2,442 square (family, chart) keys of 3x3 games).
Every key hashes (GoodFamily holds ints, the chart is validated first);
a bad family or chart is not kept: it raises again on every call.

The Newton starts iterate together: a step is one batched LU solve
(least squares through the pseudo-inverse where the system is not
square or a Jacobian is exactly singular) and one evaluation of the
trial points of all NEWTON_HALVINGS step lengths of every start, whose
accepted rows carry their residuals and Jacobians into the next step.
Each start takes its own first accepted step length and stops on its
own: converged (residual within RESIDUAL_TOL), stalled (no step length
lowers the residual) or out of steps (NEWTON_MAX_ITERS). The equations
are in each player's payoff unit (FiniteGame.payoff_exponents), so the
loop's tolerances (from the table in nashatlas.game) act the same at
every payoff scale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .atlas import (
    INF,
    ChartPoint,
    Coordinate,
    Hypersurface,
    PayoffDiff,
    _check_coords,
    _check_in_chart,
    _check_members,
    _on,
    _validate_chart,
    chart_excludes,
    defining_map,
)
from .forms import _basis_matrix
from .game import (
    DEDUP_TOL,
    FLOAT,
    NEWTON_HALVINGS,
    NEWTON_MAX_ITERS,
    RANDOM_STARTS,
    RANK_TOL,
    RESIDUAL_TOL,
    FiniteGame,
    SupportProfile,
    _check_support,
    _index,
    _sequence,
)


@dataclass(frozen=True)
class GoodFamily:
    """Per player: coordinate labels T^i (ints or INF) and strategy
    pairs R^i with j < k, as tuples of ints (and INF) once built, so that
    every family is a key of the face plans: T, R and each player's
    entries are sequences (game._sequence), and an entry of another type
    is normalised by its member (atlas.Coordinate, atlas.PayoffDiff),
    whose ValueError names it."""

    T: tuple[tuple, ...]
    R: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "T", tuple(tuple(
            t if type(t) is int else Coordinate(i, t).index
            for t in _sequence(ts, f"player {i + 1} coordinate labels"))
            for i, ts in enumerate(_sequence(self.T, "coordinate labels"))))
        object.__setattr__(self, "R", tuple(tuple(
            p if type(p) is tuple and set(map(type, p)) == {int} else PayoffDiff(i, p).pair
            for p in _sequence(ps, f"player {i + 1} pairs"))
            for i, ps in enumerate(_sequence(self.R, "pairs"))))

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


def _family_members(counts, family: GoodFamily) -> list[Hypersurface]:
    """The family's hypersurfaces, once it has one T and one R entry per
    player and its members are hypersurfaces of a game with these
    strategy counts, none listed twice (atlas._check_members)."""
    if not len(family.T) == len(family.R) == len(counts):
        raise ValueError("family needs one T and one R entry per player")
    return _check_members(counts, family.hypersurfaces())


def good_family(game: FiniteGame, T=None, R=None) -> GoodFamily:
    """Validated family (GoodFamily, then _family_members), labels and
    pairs sorted and deduplicated per player; a missing T or R selects
    nothing."""
    empty = [()] * game.num_players
    family = GoodFamily(empty if T is None else T, empty if R is None else R)
    family = GoodFamily(tuple(tuple(sorted(set(ts), key=float)) for ts in family.T),
                        tuple(tuple(sorted(set(ps))) for ps in family.R))
    _family_members(game.strategy_counts, family)
    return family


def _find_cycle(edges) -> list[int] | None:
    """A vertex cycle of the undirected graph given by the edge pairs,
    or None when the graph is a forest. Grows a spanning forest edge by
    edge; the first edge joining two already-connected vertices closes
    a cycle, recovered as the forest path between its endpoints by a
    breadth-first search from one of them."""
    adj: dict[int, list[int]] = {}
    for j, k in edges:
        if k in adj.get(j, ()):
            continue  # a repeated pair is one edge
        if j in adj and k in adj:
            prev = {j: None}
            queue = [j]
            for v in queue:
                for w in adj[v]:
                    if w not in prev:
                        prev[w] = v
                        queue.append(w)
            if k in prev:
                path = [k]
                while path[-1] != j:
                    path.append(prev[path[-1]])
                return path[::-1]
        adj.setdefault(j, []).append(k)
        adj.setdefault(k, []).append(j)
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


def _svd_ranks(a: np.ndarray):
    """One SVD of a matrix, or of a stack of matrices on the last two
    axes: (ranks, smallest singular values, full-row-rank verdicts). A
    rank counts the singular values above RANK_TOL times max(1, the
    largest of them); a matrix with no rows or no columns has rank 0 and
    no singular values, so smallest singular value inf, and it has full
    row rank exactly when it has no rows."""
    sv = np.linalg.svd(a, compute_uv=False)
    ranks = np.sum(sv > RANK_TOL * np.maximum(1.0, sv[..., :1]), axis=-1)
    return ranks, sv.min(axis=-1, initial=math.inf), ranks == a.shape[-2]


def _inf_norm(v):
    """Max-abs norm over the last axis: a float for one vector, an array
    for a stack of them."""
    return np.abs(v).max(axis=-1, initial=0.0)


def _norm(v):
    """2-norm over the last axis, as np.linalg.norm(v, axis=-1) computes
    it for real v, without its dispatch."""
    return np.sqrt((v * v).sum(axis=-1))


def _newton_step(jac: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Steps s with jac s = -f for a stack of Jacobians (L, n_eq, n) and
    residuals (L, n_eq): one batched LU solve when the stack is square;
    for a stack that is not square, or has a member LU finds exactly
    singular, the minimum-norm least-squares steps of the whole stack
    with np.linalg.lstsq's cutoff."""
    if jac.shape[-1] == jac.shape[-2]:
        try:
            return np.linalg.solve(jac, -f[..., None])[..., 0]
        except np.linalg.LinAlgError:
            pass
    rcond = np.finfo(float).eps * max(jac.shape[-2:])
    return (np.linalg.pinv(jac, rcond=rcond) @ -f[..., None])[..., 0]


def _dedup(rows: np.ndarray) -> np.ndarray:
    """The rows of a (B, n) array, in order, that are not within
    DEDUP_TOL (max-abs) of an earlier row kept, as one (k, n) array (k
    = 0 included): each pass keeps the first remaining row and drops
    every later row within DEDUP_TOL of it."""
    kept = []
    while len(rows):
        kept.append(rows[0])
        rows = rows[1:][_inf_norm(rows[1:] - rows[0]) > DEDUP_TOL]
    return np.array(kept).reshape(len(kept), rows.shape[1])


def _newton_roots(system, starts, accept=None) -> np.ndarray:
    """Damped Newton from every start, all starts at once.

    The live starts iterate together as the rows of one stack: system
    takes a (B, n) stack of points and returns their residuals and
    Jacobians, (B, n_eq) and (B, n_eq, n) (_face_system's system: one
    gather and one matrix product). Each step solves jacobian step =
    -residual (_newton_step: LU on a square stack, else least squares)
    and tries the lengths t = 2^-r, r = 0 .. NEWTON_HALVINGS - 1: the
    trial points of every live start and every halving go to system as
    one stack, and each start takes its first t whose residual 2-norm is
    at most (1 - t/4) times the current one, with that trial point's
    residual, Jacobian and 2-norm. So a step is one system call and one
    solve, besides the call on the starts. Every start stops on its own
    rule, one of three: it has converged once its residual is within
    RESIDUAL_TOL (max-norm), stalled once no length passes (near a
    regular root the full step passes; a zero or vanishing step passes
    none) or run out of steps after NEWTON_MAX_ITERS; the live stack
    drops it then. `accept` takes the (k, n) stack of converged limits
    and returns a mask of those to keep; the kept limits come back
    deduplicated at DEDUP_TOL (_dedup), in start order, as one (k, n)
    array, (0, n) when no start converged.
    """
    x = np.array(starts, dtype=float)  # a start's row takes its limit once it converges
    converged = np.zeros(len(x), dtype=bool)
    live, y = np.arange(len(x)), x  # the live starts and their points
    f, jac = system(y)
    norm = _norm(f)
    t = 0.5 ** np.arange(NEWTON_HALVINGS)
    shrink = 1.0 - 0.25 * t
    for it in range(NEWTON_MAX_ITERS + 1):
        go = _inf_norm(f) > RESIDUAL_TOL
        if not go.all():
            x[live[~go]], converged[live[~go]] = y[~go], True
            live, y, f, jac, norm = live[go], y[go], f[go], jac[go], norm[go]
        if not live.size or it == NEWTON_MAX_ITERS:
            break
        step = _newton_step(jac, f)
        # row l * NEWTON_HALVINGS + r holds halving r of live start l;
        # sizes are explicit, as reshape cannot infer one next to a 0
        xn = (y[:, None] + t[:, None] * step[:, None]).reshape(len(live) * len(t), x.shape[1])
        fn, jn = system(xn)
        normn = _norm(fn)
        ok = normn.reshape(len(live), len(t)) <= shrink * norm[:, None]
        pick = np.arange(len(live)) * len(t) + ok.argmax(axis=1)
        passed = ok.any(axis=1)
        if not passed.all():
            live, pick = live[passed], pick[passed]
        y, f, jac, norm = xn[pick], fn[pick], jn[pick], normn[pick]
    keep = converged
    if accept is not None:
        keep[keep] = accept(x[keep])
    return _dedup(x[keep])


# Face plans (_face_plan) and Segre tables (_segre_tables) kept: each
# cache holds its FACE_PLANS most recently used keys.
FACE_PLANS = 1024


@dataclass(frozen=True)
class _SystemPlan:
    """What _face_system needs besides the payoffs (_system_plan): the
    weight maps, the block sizes' coordinate spans, per equation player
    (i, js, ks, t's einsum axes, the other players' weight maps with
    their axes, the output axes), and _segre_tables' gather table and
    take index of K. Every array is read-only."""

    weights: tuple[np.ndarray, ...]
    spans: tuple[tuple[int, int], ...]
    n: int
    n_eq: int
    players: tuple
    gather: np.ndarray
    place: np.ndarray


@functools.lru_cache(maxsize=FACE_PLANS)
def _segre_tables(dims: tuple[int, ...], eqs: tuple[tuple[int, int], ...]):
    """Index tables of the Segre monomials of the blocks (1, z_b), z_b
    with dims[b] coordinates, in the C order of their outer product, for
    the equation players eqs, (player, equation count) in player order.
    gather[b, r] is the position of monomial r's block-b factor in the
    vector (z, 1): the trailing 1 for slot 0, z_b's slot - 1 otherwise.
    Player i's coefficients are nonzero only at the monomials whose
    block-i slot is 0 (v_i[0] = 1), where _face_system's einsum gives
    them, in the other blocks' C order. Those coefficients, player after
    player, then one 0, are what K = [C | K_J] is taken from, and place
    holds each entry's position: C's, then K_J's, whose column for slot
    k >= 1 of block q is C's column at monomial r with its block-q slot
    set to k, for r with block-q slot 0, and 0 elsewhere."""
    shape = tuple(d + 1 for d in dims)
    n, size, n_eq = sum(dims), math.prod(shape), sum(k for _, k in eqs)
    slots = np.indices(shape).reshape(len(dims), size)
    offsets = np.cumsum((0,) + dims[:-1])
    gather = np.where(slots > 0, slots + (offsets - 1)[:, None], n)
    monomials = np.arange(size).reshape(shape)
    zero = sum(size // shape[i] * k for i, k in eqs)  # the 0 after every coefficient
    coeffs = np.full((size, n_eq), zero)
    start = col = 0
    for i, k in eqs:
        rows = monomials.take(0, axis=i).reshape(-1)
        coeffs[rows, col:col + k] = start + np.arange(rows.size * k).reshape(rows.size, k)
        start, col = start + rows.size * k, col + k
    jac = np.full((size, n_eq, n), zero)
    for q, (d, stride) in enumerate(zip(dims, size // np.cumprod(shape))):
        base = np.flatnonzero(slots[q] == 0)
        for k in range(1, d + 1):
            jac[base, :, offsets[q] + k - 1] = coeffs[base + k * stride]
    # sizes are explicit, as reshape cannot infer one next to a 0
    place = np.concatenate((coeffs, jac.reshape(size, n_eq * n)), axis=1)
    for a in (gather, place):
        a.setflags(write=False)  # every system of these sizes shares them
    return gather, place


def _system_plan(pairs, weights) -> _SystemPlan:
    """The payoff-free part of _face_system for the own-strategy pairs
    (one tuple per player) and weight maps weights[b], a (c_b, 1 + d_b)
    matrix taking (1, z_b) to player b's weights. Player i's equations
    slope_j - slope_k are u_i at js minus u_i at ks, flat indices into
    u_i laid out as (the other players' axes, the pairs), and one einsum
    with the other players' weight maps turns them into their
    coefficients (_segre_tables)."""
    m = len(weights)
    counts = tuple(a.shape[0] for a in weights)
    dims = tuple(a.shape[1] - 1 for a in weights)
    strategies = np.arange(math.prod(counts)).reshape(counts)
    players = []
    for i, own in enumerate(pairs):
        if not own:
            continue
        others = [b for b in range(m) if b != i]
        grid = strategies.transpose(others + [i])
        js, ks = grid[..., [j for j, _ in own]], grid[..., [k for _, k in own]]
        for a in (js, ks):
            a.setflags(write=False)
        operands = tuple(x for b in others for x in (weights[b], (b, m + b)))
        players.append((i, js, ks, (*others, 2 * m), operands, (*(m + b for b in others), 2 * m)))
    eqs = tuple((i, len(pairs[i])) for i, *_ in players)
    ends = np.cumsum(dims).tolist()
    return _SystemPlan(tuple(weights), tuple((e - d, e) for d, e in zip(dims, ends)),
                       sum(dims), sum(k for _, k in eqs), tuple(players),
                       *_segre_tables(dims, eqs))


_ZERO = np.zeros(1)
_ZERO.setflags(write=False)


def _face_system(game: FiniteGame, plan: _SystemPlan):
    """The payoff-difference system restricted to a coordinate face.

    z concatenates the face coordinates z_b, and plan (_system_plan)
    holds everything that does not depend on the payoffs. Player i's
    equations are slope_j - slope_k, (j, k) in its pairs: its exact
    payoff differences (integer_utilities) in its payoff unit, each
    rounded once to float, so payoffs of any size and mode fit. One
    einsum per player composes them with the other players' weight
    maps, so every equation is a multilinear form in the blocks (1,
    z_b), a linear form in their Segre monomials with coefficients C.
    The Jacobian is linear in them too: its column for slot k of block q
    is C's slot k on axis q, read at the monomials whose block-q slot is
    0 (v_q[0] = 1, so those are the other blocks' monomials), zero at
    the others. So one matrix K = [C | K_J], one take of the players'
    coefficients (plan.place), gives both: system(z) gathers the
    monomials from (z, 1) in one indexing and one product, and returns
    monomials @ K split into the residual (n_eq,) and the Jacobian
    (n_eq, n). vectors(z) gives the per-player (1, z_b). Each takes one
    point z of shape (n,) or a stack of B points of shape (B, n), and
    then puts the batch axis first in its results. system evaluates a
    lone point (1-D z, or a stack of one) as row 0 of a stack of two, as
    NumPy's matmul sums one row in another order than a stack: a point's
    residual and Jacobian are the same bits alone or in any stack.
    """
    blocks = []
    for i, js, ks, t_axes, operands, out_axes in plan.players:
        (ints, scale), e = game.integer_utilities[i], game.payoff_exponents[i]
        t = np.asarray((ints.take(js) - ints.take(ks)) * 2**max(-e, 0) / (scale << max(e, 0)),
                       dtype=float)
        blocks.append(np.einsum(t, t_axes, *operands, out_axes).reshape(-1))
    kmat = np.concatenate(blocks + [_ZERO]).take(plan.place)
    gather, spans, n, n_eq = plan.gather, plan.spans, plan.n, plan.n_eq

    def vectors(z):
        one = np.ones(z.shape[:-1] + (1,))
        return [np.concatenate((one, z[..., lo:hi]), axis=-1) for lo, hi in spans]

    def system(z):
        b = len(z) if z.ndim == 2 else 1
        stack = np.concatenate((z, z)).reshape(2, n) if b == 1 else z  # a lone point: row 0 of two
        padded = np.concatenate((stack, np.ones((len(stack), 1))), axis=1)
        out = (padded[:, gather].prod(axis=1) @ kmat)[:b]
        # sizes are explicit, as reshape cannot infer one next to a 0
        f, jac = out[:, :n_eq], out[:, n_eq:].reshape(b, n_eq, n)
        return (f[0], jac[0]) if z.ndim == 1 else (f, jac)

    return system, vectors


def full_gradient(game: FiniteGame, members, point: ChartPoint) -> np.ndarray:
    """The Jacobian at a chart point of the members' defining maps in all
    chart coordinates, row r members[r]'s, all checked (transversal_at's
    door): a coordinate hyperplane's row its defining map's constant
    vector less the chart slot, in its player's columns; the
    payoff-difference rows the face system's Jacobian (T empty,
    _face_plan then _face_system) at z = the chart coordinates, in
    each player's payoff unit taken exactly."""
    R = tuple(tuple(sorted({h.pair for h in members if isinstance(h, PayoffDiff) and h.player == i}))
              for i in range(game.num_players))
    plan = _face_plan(game.strategy_counts, GoodFamily(((),) * len(R), R), point.chart).system
    jac = _face_system(game, plan)[0](np.concatenate(point.coords).astype(float))[1]
    rows = dict(zip(((i, p) for i, ps in enumerate(R) for p in ps), jac))
    out = np.zeros((len(members), plan.n))
    for r, h in enumerate(members):
        if isinstance(h, PayoffDiff):
            out[r] = rows[h.player, h.pair]
        else:
            lo, hi = plan.spans[h.player]
            out[r, lo:hi] = np.delete(defining_map(game, h, point.chart).coeffs,
                                      point.chart[h.player])
    return out


def transversal_at(
    game: FiniteGame,
    family: GoodFamily,
    point: ChartPoint,
    active: list[Hypersurface] | None = None,
) -> TransversalityReport:
    """Transversality of the family at one chart point.

    One door checks every input once: the point's chart and coordinates,
    each a number with a float (the Jacobian is float; an exact one
    beyond the float range is a ValueError naming it), and the family,
    or `active` when it is given, against the game. Membership (atlas._on)
    and the Jacobian are then computed on the checked inputs.
    Hypersurfaces not containing the point are ignored; those the chart
    excludes cannot contain it and are skipped, and one listed twice
    raises ValueError. Pass `active` to pin the active set instead of
    detecting it by membership (where activity is known, as for an
    equilibrium's canonical family). Verdict is transversal iff the
    stacked Jacobian (full_gradient: row r active[r]'s, payoff-difference
    rows the face system's, in exact payoff units) has full row rank.
    """
    counts = game.strategy_counts
    chart = _validate_chart(point.chart, counts)
    _check_coords(game, point.coords)
    try:
        floats = tuple(np.asarray(c, dtype=float) for c in point.coords)
    except OverflowError:
        _check_coords(game, point.coords, FLOAT)  # names the coordinate beyond the float range
        raise
    if active is None:
        members = [h for h in _family_members(counts, family) if not chart_excludes(chart, h)]
        active = _on(game, members, chart, point.coords)
    else:
        _check_in_chart(chart, _check_members(counts, active))
    jac = full_gradient(game, active, ChartPoint(chart, floats))
    rank, smin, full = _svd_ranks(jac)
    return TransversalityReport(
        chart=chart,
        point=point,
        active=tuple(active),
        jacobian=jac,
        rank=int(rank),
        smallest_singular_value=float(smin),
        verdict="transversal" if full else "degenerate",
    )


def canonical_equilibrium_family(game: FiniteGame, support: SupportProfile) -> GoodFamily:
    """Off-support coordinate hyperplanes plus the star of in-support
    slope equalities; its size is the chart dimension, so the Jacobian
    at an equilibrium is square. The support is checked against the game
    (game._check_support)."""
    T, R = [], []
    for i, supp in enumerate(_check_support(support, game.strategy_counts)):
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


def _face_maps(counts, family: GoodFamily, chart):
    """Per player the (c_b, 1 + d_b) matrix taking (1, z_b) to the full
    tilde vector of the face cut out by the T^b coordinate constraints,
    chart slot included. Returns None when the face misses the chart."""
    maps = []
    for c, l, labels in zip(counts, chart, family.T):
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
            g = _basis_matrix(c)[0]
            a[free[0]] = -(g @ a) / g[free[0]]
            a = np.delete(a, 1, axis=1)
        maps.append(a)
    return maps


@dataclass(frozen=True)
class _FacePlan:
    """A family's face in a chart, for a game's strategy counts
    (_face_plan): the face maps ((1, z_b) -> tilde) and the system
    plan, both None when the face misses the chart."""

    maps: tuple[np.ndarray, ...] | None
    system: _SystemPlan | None


@functools.lru_cache(maxsize=FACE_PLANS)
def _face_plan(counts, family: GoodFamily, chart) -> _FacePlan:
    """The plan of a family and a chart (a tuple of ints) already checked
    against the counts, built once per key and kept: by its caller's door
    (regular_value_probe, transversal_at) or, for an equilibrium's
    canonical family in chart (0, ..., 0), by the support check
    (game._check_support). _face_maps' maps, turned into weights by
    forms._basis_matrix's M (gamma_0 = tilde_0 - sum_{j>=1} tilde_j,
    gamma_j = tilde_j), and their _system_plan."""
    maps = _face_maps(counts, family, chart)
    system = None
    if maps is not None:
        weights = [_basis_matrix(len(a)) @ a for a in maps]
        for a in maps + weights:
            a.setflags(write=False)
        maps, system = tuple(maps), _system_plan(family.R, weights)
    return _FacePlan(maps, system)


@functools.lru_cache(maxsize=FACE_PLANS)
def _check_family(counts, family: GoodFamily, chart) -> None:
    """The probe's check of a family, once per key: against the counts
    (_family_members) and a checked chart (atlas._check_in_chart:
    ValueError or ChartExcludesHypersurface), then that it is good
    (is_good); a bad family or chart raises on every call, as nothing is
    kept for it."""
    _check_in_chart(chart, _family_members(counts, family))
    if not is_good(family):
        raise ValueError("family is not good (some pair graph has a cycle)")


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
    atlas.defining_map, formed by _face_system. A root's residual is
    the largest absolute value of those maps there: in the game's own
    payoffs, not in payoff units, so it scales with the payoffs; one
    beyond the float range (payoff differences that large) reads inf,
    without a warning. An empty root set is a regular outcome; the probe
    only ever witnesses degeneracy, it cannot prove its absence. The
    seed of the random starts is an index (game._index).
    """
    seed = _index(seed, "seed")
    chart = _validate_chart(chart, game.strategy_counts)
    _check_family(game.strategy_counts, family, chart)
    plan = _face_plan(game.strategy_counts, family, chart)
    if family.num_pairs == 0:
        raise ValueError("family has no payoff-difference pairs to probe")
    if plan.maps is None:
        return ProbeReport(chart, family, 0, family.num_pairs, True, (), "regular")
    system, vectors = _face_system(game, plan.system)
    total_dim = plan.system.n

    def point_of(z) -> ChartPoint:
        return ChartPoint(chart, tuple(
            np.delete(a @ v, l) for a, v, l in zip(plan.maps, vectors(z), chart)
        ))

    rng = np.random.default_rng(seed)
    starts = np.vstack([np.zeros(total_dim), rng.normal(0.0, 1.0, (RANDOM_STARTS, total_dim))])
    roots = _newton_roots(system, starts)
    f, jac = system(roots)
    # each equation's residual (in payoff units) times its player's unit
    # 2^e_i, inf where that leaves the float range
    exponents = np.repeat(game.payoff_exponents, [len(pairs) for pairs in family.R])
    with np.errstate(over="ignore"):
        residuals = _inf_norm(np.ldexp(f, exponents))

    ranks, _, full = _svd_ranks(jac)
    out = tuple(ProbeRoot(point=point_of(z), residual=float(res), rank=int(rank), regular=bool(ok))
                for z, res, rank, ok in zip(roots, residuals, ranks, full))
    return ProbeReport(
        chart=chart,
        family=family,
        dimension=total_dim,
        num_equations=family.num_pairs,
        empty_face=False,
        roots=out,
        verdict="regular" if all(r.regular for r in out) else "degenerate",
    )

