"""Nash equilibrium enumeration by support enumeration.

A profile is an equilibrium iff for every player the payoff slopes of
the supported own strategies agree and weakly dominate the slopes of
the unsupported ones, the slopes being the pure-strategy payoffs
against the opponents' mixture. Fixing a support profile turns the
equality part into a square polynomial system on the product of open
faces. When at most two players mix (every support of a two-player
game), the other players are held at their one strategy, and the system
is linear per player block and solved exactly: each payoff tensor is
scaled exactly to Python ints (FiniteGame.integer_rows; float payoffs
are dyadic), each block is solved by fraction-free elimination
(exact.solve_affine, integer numerators over one positive denominator)
in the face coordinates of chart (0, ..., 0) that the Newton route
uses, the solving player's weights on supp[1:] (integer rows [A | b]),
with w_{supp[0]} recovered from the sum rule. A block's rows depend
only on the solving player's support, the partner's first supported
strategy and the partner's other ones, so every row of every support
is built once per game (FiniteGame._face_rows, per solving pair and
held profile of the other players) and a support picks its rows from
that table (_face_block). Exact numbers take no
tolerance: a weight is positive when it is > 0. One pass looks for a
positive point block by block and stops at the first block without one:
a unique solution is decided on its integer numerators, and a
positive-dimensional one gets its max-min point from an exact integer
simplex (exact.max_min_point) on the whole block, sum rule included,
since the set has a positive point exactly when its largest smallest
weight is > 0. Both blocks' points witness a continuum, or make the one
candidate (_integer_solution). The candidate is screened in Python ints
before any Fraction is built (_exact_pair_solve) by best_reply_check's
rule (_reply) at tolerance 0, player by player until the first who
gains. Most candidates fail these off-support inequalities, so only a
support's equilibrium becomes a Fraction profile, in either mode;
enumerate_nash still checks it with best_reply_check, which builds its
report, and rounds a float game's answers to float64 once, at the end,
as best_reply_check rounds (game._rounded: +-inf beyond the float range).
A one-player game's player is solved so too, its partner held with no
payoffs. When three or more players mix the system is multilinear, and
only then does it run the damped multistart Newton loop of
genericity._newton_roots on its canonical family's face in chart (0,
..., 0), the system the probe solves too (genericity._face_plan, then
_face_system): the unknowns are each player's weights on supp[1:], and
player i's equations are slope(supp[0]) - slope(t), t in supp[1:], in
its payoff unit, from exact payoff differences rounded once. The starts
(_newton_starts) are simplex points without their first weight. The
roots are floats, kept when every supported weight is > 0, however
small, not above WEIGHT_TOL: a root by a face's boundary stays,
support_of reads its tiny weight as 0, and best_reply_check finds that
strategy's margin within the tolerance (boundary-degenerate), where the
root would otherwise be dropped without a word. The positivity,
continuum and singular-root checks on the roots are one batched call
each.

Every equilibrium is certified from that same face system
(certify_equilibrium): regular iff its Jacobian at the equilibrium has
full rank. Rank and smallest singular value are in payoff units, so
neither moves under a power-of-two payoff scaling, and, as the face
system evaluates a lone point as a row of a stack, they are a function
of the point alone.

Every best-reply test, the screen's and best_reply_check's, is one
computation in integers (_reply; a float weight is a dyadic rational)
and one rule. Exactness (MixedProfile.exact: int or Fraction weights,
in either mode, decided once per profile) picks only the tolerance, 0
or CHECK_TOL in each player's payoff unit, scaled exactly (tolerances:
nashatlas.game),
and whether the report holds Fractions or the exact values rounded once
to float; a certificate's `exact` is its reported point's. The check
also says which margins are on the boundary (0 exactly, or below the
tolerance), and so which certificates are boundary-degenerate.
Equilibria are told apart by support: each candidate has the support
it was solved on, and Newton roots of one support are already merged
at DEDUP_TOL.

Rank-deficient strata raise SingularSystem instead of guessing: a
positive-dimensional solution set or a singular Jacobian at a root is
evidence the game sits in the degenerate exceptional set, and the
enumerator surfaces it as a warning with a witness where it has one.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .exact import AffineSolutionSet, max_min_point, solve_affine
# payoff_slice_values is not called here: bench/spans.py traces it under this name
from .forms import _slope_nums, payoff_slice_values
from .genericity import (
    _face_plan,
    _face_system,
    _inf_norm,
    _newton_roots,
    _svd_ranks,
    canonical_equilibrium_family,
)
from .game import (
    CHECK_TOL,
    FLOAT,
    RANDOM_STARTS,
    RATIONAL,
    RESIDUAL_TOL,
    FiniteGame,
    MixedProfile,
    SupportProfile,
    _check_blocks,
    _check_support,
    _index,
    _integer_ratio,
    _rounded,
    profile_from_weights,
    support_of,
)


class SingularSystem(RuntimeError):
    """A support stratum whose equality system is degenerate."""

    def __init__(self, support: SupportProfile, reason: str,
                 witness: MixedProfile | None = None, candidates=()):
        super().__init__(reason)
        self.support = support
        self.reason = reason
        self.witness = witness
        self.candidates = list(candidates)


@dataclass(frozen=True)
class BestReplyReport:
    """Per-player equality residuals, in-vs-out margins and boundary flags."""

    ok: tuple[bool, ...]
    equality_residuals: tuple
    inequality_margins: tuple
    boundary: tuple[bool, ...]

    @property
    def all_ok(self) -> bool:
        return all(self.ok)


def best_reply_check(game: FiniteGame, profile: MixedProfile) -> BestReplyReport:
    """Check the equilibrium conditions player by player.

    For each player the supported slope values must agree and be at
    least every unsupported slope value (_reply, one rule in integers);
    margins are +inf for full supports. Exact weights (MixedProfile.exact,
    in either mode) take tolerance 0 and are reported as Fractions; float
    weights take CHECK_TOL in player i's unit and are reported as the
    exact values rounded once to float, +-inf beyond the float range (a
    game whose payoffs lie beyond it); the verdicts stay in integers.
    """
    _check_blocks(profile.weights, game.strategy_counts, "weight")
    supports = support_of(profile).supports
    nums = [_integer_ratio(w, "weight") for w in profile.weights]
    number = Fraction if profile.exact else _rounded
    oks, residuals, margins, boundary = [], [], [], []
    for i, supp in enumerate(supports):
        tol = 0 if profile.exact else CHECK_TOL
        ok, on_boundary, residual, margin, den = _reply(game, i, supp, nums, tol)
        oks.append(ok)
        boundary.append(on_boundary)
        residuals.append(number(residual, den))
        margins.append(margin if margin == math.inf else number(margin, den))
    return BestReplyReport(tuple(oks), tuple(residuals), tuple(margins), tuple(boundary))


def _reply(game: FiniteGame, i: int, supp, nums, tol) -> tuple:
    """The one best-reply rule for player i on supp at integer weights
    ``nums`` (forms._slope_nums), at tolerance ``tol`` (an int or a float,
    taken exactly) in its payoff unit: (ok, boundary, residual, margin, den),
    the residual the spread of the supported slopes and the margin their
    least minus the largest unsupported one (or inf), both over den. ok
    when residual <= tol and margin >= -tol, boundary when the margin is
    0 or |margin| < tol."""
    slopes, den = _slope_nums(game, i, nums)
    inside = [slopes[j] for j in supp]
    outside = [x for j, x in enumerate(slopes) if j not in supp]
    low = min(inside)
    residual = max(inside) - low
    # x / den <= tol * 2**e = p / q as x * q <= p * den: 2**e may lie beyond any float
    p, q = tol.as_integer_ratio()
    e = game.payoff_exponents[i]
    limit, q = p * den << max(e, 0), q << max(-e, 0)
    if not outside:
        return residual * q <= limit, False, residual, math.inf, den
    margin = low - max(outside)
    return (residual * q <= limit and margin * q >= -limit,
            margin == 0 or abs(margin) * q < limit, residual, margin, den)


def enumerate_supports(game: FiniteGame) -> tuple[SupportProfile, ...]:
    """All nonempty-support profiles, lexicographic per player. They
    depend on the strategy counts alone, so they are built once per
    strategy-count tuple (_support_profiles) and shared."""
    return _support_profiles(tuple(game.strategy_counts))


@functools.lru_cache(maxsize=8)
def _support_profiles(counts: tuple[int, ...]) -> tuple[SupportProfile, ...]:
    per_player = []
    for c in counts:
        subsets = []
        for size in range(1, c + 1):
            subsets.extend(itertools.combinations(range(c), size))
        per_player.append(sorted(subsets))
    return tuple(SupportProfile(combo) for combo in itertools.product(*per_player))


def _face_block(table, supp, osupp) -> list[list[int]]:
    """The solving player's block in face coordinates, its weights z on
    supp[1:] (chart (0, ..., 0)), as integer rows [A | b]: one row per j
    in osupp[1:], read from the solving player's face table
    (nashatlas.game._face_table, table[supp][o][j], one of the game's
    _face_rows) at o = osupp[0]. With a_js = u[j][s] - u[o][s] and
    s0 = supp[0], the row is (a_js - a_{j,s0}, s in supp[1:] | -a_{j,s0}):
    the partner's slope equalities with w_{s0} = 1 - sum(z) substituted.
    The rows are the table's own lists, which no caller edits."""
    rows = table[supp][osupp[0]]
    return [rows[j] for j in osupp[1:]]


def _simplex_nums(sol: AffineSolutionSet) -> list[int]:
    """The numerators over sol.den of the whole weight vector at the face
    solution ``sol``: w_{supp[0]} = (den - sum(nums)) / den, then nums."""
    return [sol.den - sum(sol.nums), *sol.nums]


def _positive_point(sol: AffineSolutionSet, rows) -> tuple[list[int], int] | None:
    """A weight vector whose every entry is > 0 in the positive-dimensional
    solution set ``sol`` of the face block ``rows`` = [A | b]
    (_face_block), as integer numerators over one positive denominator, or
    None.

    It is the exact max-min point (exact.max_min_point) of the whole
    block, a row [-b_j, a_j - b_j | 0] (x - b_j over [a_j | b_j] ends in
    0) per row and the sum row, whose smallest entry t* is the largest on
    the set: a positive point exists exactly when t* > 0, and is returned.
    """
    full = [[-row[-1]] + [x - row[-1] for x in row] for row in rows]
    best = max_min_point(full + [[1] * (len(sol.nums) + 2)])
    return best[1:] if best is not None and best[0] > 0 else None


def _integer_solution(game: FiniteGame, support: SupportProfile):
    """The support's candidate before any best-reply test: the weights
    that solve its slope equalities and are all > 0, as one (numerators,
    den) per player over its whole strategy set, den > 0; None when there
    are none. Two players i < j are solved for (both of a two-player
    game, else the mixed ones, with a pure partner when one mixes), from
    each other's slope equalities, in face coordinates (_face_block) as
    the Newton route does; every other player is held at its one strategy,
    and with none mixed the candidate is the support's vertex. Exact: the
    blocks are read from the game's integer face tables, built once per
    game (game._face_rows, keyed by the pair and the held strategies), and
    the positive scale they carry does not change the solution set.

    Both blocks are eliminated, and an empty one ends the support before
    anything else is built. Otherwise one pass looks for a positive point
    block by block and stops at the first block without one: a unique
    solution is decided on its integer numerators (_simplex_nums), a
    positive-dimensional one by its max-min point (_positive_point). A
    positive-dimensional solution set raises SingularSystem, with both
    blocks' points as its witness (a Fraction profile) when both have
    one. A one-player game's partner has one strategy and no payoffs
    (game._face_rows): its block holds the player's constant slope
    differences."""
    supports = support.supports
    if len(supports) == 1:
        supports += ((0,),)
    key = _pair_key(supports)
    if key is None:
        found, unique = {}, True
    else:
        i, j, _ = key
        table_i, table_j = game._face_rows[key]
        si, sj = supports[i], supports[j]
        rows_i = _face_block(table_i, si, sj)
        sol_i = solve_affine(rows_i, len(si) - 1)
        rows_j = _face_block(table_j, sj, si)
        sol_j = solve_affine(rows_j, len(sj) - 1)
        if sol_i.nums is None or sol_j.nums is None:  # no solution; most supports end here
            return None
        found, unique = {}, sol_i.is_unique and sol_j.is_unique
        for k, sol, rows in ((i, sol_i, rows_i), (j, sol_j, rows_j)):
            block = (_simplex_nums(sol), sol.den) if sol.is_unique else _positive_point(sol, rows)
            if block is None or min(block[0]) <= 0:
                if unique:
                    return None
                raise SingularSystem(support, "positive-dimensional solution set")
            found[k] = block
    # the support's vertex, the solved players' points written over it
    point = []
    for k, (supp, c) in enumerate(zip(supports, game.strategy_counts)):
        nums, den = found.get(k, ((1,), 1))
        weights = [0] * c
        for s, n in zip(supp, nums):
            weights[s] = n
        point.append((weights, den))
    if unique:
        return point
    # positive-dimensional solution set: the caller decides what it means
    raise SingularSystem(support, "positive-dimensional solution set",
                         witness=_rational_profile(point))


def _pair_key(supports) -> tuple[int, int, tuple[int, ...]] | None:
    """The key of game._face_rows a support's blocks are read from: the
    solving pair i < j (both players of a two-player game, else the mixed
    ones, with the first pure player as partner when one mixes) and the
    other players' one strategies; None when nobody mixes."""
    if len(supports) == 2:
        return 0, 1, ()
    pair = [k for k, s in enumerate(supports) if len(s) > 1]
    if not pair:
        return None
    if len(pair) == 1:
        # a pure partner: its block holds the lone mixed player's slope
        # differences, constants that tie or not
        pair.append(next(k for k, s in enumerate(supports) if len(s) == 1))
    i, j = sorted(pair)
    return i, j, tuple(s[0] for k, s in enumerate(supports) if k != i and k != j)


def _rational_profile(point) -> MixedProfile:
    """The Fraction profile of integer weights, one (numerators, den) per
    player."""
    return profile_from_weights([[Fraction(n, den) for n in nums] for nums, den in point],
                                RATIONAL)


def _exact_pair_solve(game: FiniteGame, support: SupportProfile) -> list[MixedProfile]:
    """Supports on which at most two players mix: the support's
    equilibrium, as a one-element list of a Fraction profile in either
    mode, with e_s on every held player, or []. The candidate
    (_integer_solution) is screened in integers by the one rule (_reply)
    at tolerance 0, player by player until the first who gains, and
    becomes a Fraction profile only when it passes; a positive-dimensional
    solution set raises SingularSystem from _integer_solution."""
    point = _integer_solution(game, support)
    if point is None or not all(_reply(game, k, supp, point, 0)[0]
                                for k, supp in enumerate(support.supports)):
        return []
    return [_rational_profile(point)]


def _newton_starts(sizes: tuple[int, ...], seed: int) -> np.ndarray:
    """The (B, sum(sizes) - len(sizes)) Newton starts for mixed players
    with the given support sizes: the centroid, one start pulled towards
    each vertex of the product of simplices, then RANDOM_STARTS uniform
    draws. Each simplex point keeps all but its first weight. The random
    rows are the stream of one rng.dirichlet(np.ones(s)) call per player
    and start: a block of gammas divided by its left-to-right sum."""
    centroid = np.concatenate([np.full(s - 1, 1.0 / s) for s in sizes])
    choice = np.array(list(itertools.product(*map(range, sizes))))
    corners = np.concatenate(
        [np.eye(s)[choice[:, k], 1:] for k, s in enumerate(sizes)], axis=1
    )
    gammas = np.random.default_rng(seed).standard_gamma(1.0, (RANDOM_STARTS, sum(sizes)))
    draws = np.split(gammas, np.cumsum(sizes)[:-1], axis=1)
    uniform = [g[:, 1:] * (1.0 / np.cumsum(g, axis=1)[:, -1:]) for g in draws]
    return np.vstack([centroid, 0.1 * centroid + 0.9 * corners, np.hstack(uniform)])


def _newton_solve(game: FiniteGame, support: SupportProfile, seed: int):
    """Multistart damped Newton on the support's canonical face in chart
    (0, ..., 0) (genericity._face_plan, then _face_system): supports on
    which three or more players mix."""
    supports = support.supports
    mixed = [i for i in range(game.num_players) if len(supports[i]) >= 2]
    plan = _face_plan(game.strategy_counts, canonical_equilibrium_family(game, support),
                      (0,) * game.num_players)
    system = _face_system(game, plan)

    def positive(x):
        # (k, n) stack of roots -> mask of those inside the open face: every
        # supported weight > 0, whatever its size (support_of and the
        # best-reply check then flag a weight under WEIGHT_TOL as boundary)
        w = plan.weights_at(x)
        return np.all([(w[i][:, supports[i]] > 0).all(axis=1) for i in mixed], axis=0)

    starts = _newton_starts(tuple(len(supports[i]) for i in mixed), seed)
    roots = _newton_roots(system, starts, accept=positive)
    profiles = [profile_from_weights(plan.weights_at(r)) for r in roots]

    # all root-pair midpoints at once; triu_indices lists the pairs in
    # itertools.combinations order, so the first solving pair is the witness
    a, b = np.triu_indices(len(roots), k=1)
    mids = 0.5 * (roots[a] + roots[b])
    solves = _inf_norm(system(mids)[0]) <= RESIDUAL_TOL
    if solves.any():
        raise SingularSystem(
            support,
            "continuum of solutions (midpoint of two roots also solves)",
            witness=profile_from_weights(plan.weights_at(mids[np.argmax(solves)])),
            candidates=profiles,
        )

    if not _svd_ranks(system(roots)[1])[2].all():
        raise SingularSystem(support, "singular Jacobian at a root", candidates=profiles)

    return profiles


def solve_support(game: FiniteGame, support: SupportProfile, seed: int = 0):
    """Isolated profiles with the given support: strictly positive
    weights on the support, zero elsewhere, slope equalities satisfied.
    Raises SingularSystem on degenerate strata.

    A support on which at most two players mix has linear slope
    equations and is solved exactly (_exact_pair_solve): every support
    of a one- or two-player game, and those of a larger game on which the
    other players are pure. There the solution is also screened in
    integers for every player's best reply, so the list holds the
    support's equilibrium or nothing, not every positive solution; its
    profiles are Fractions in either mode. Three or more mixed players
    make the system multilinear; only those supports take multistart
    Newton (_newton_solve). The seed of the Newton starts is an index
    (game._index), and the support is checked against the game
    (game._check_support), on every route."""
    seed = _index(seed, "seed")
    supports = _check_support(support, game.strategy_counts)
    if len(supports) > 2 and sum(len(s) > 1 for s in supports) > 2:
        return _newton_solve(game, support, seed)
    return _exact_pair_solve(game, support)


@dataclass(frozen=True)
class EquilibriumCertificate:
    """An enumerated equilibrium with its numerical evidence; `exact` is
    its point's MixedProfile.exact."""

    point: MixedProfile
    support: SupportProfile
    equality_residual: float | Fraction
    inequality_margins: tuple
    jacobian_verdict: str | None = None
    smallest_singular_value: float | None = None
    boundary_degenerate: bool = False

    @property
    def exact(self) -> bool:
        return self.point.exact


def certify_equilibrium(game: FiniteGame, cert: EquilibriumCertificate) -> EquilibriumCertificate:
    """cert with its regularity verdict: regular iff its Jacobian, which
    is the Jacobian of its support's canonical family's face in chart
    (0, ..., 0) (genericity._face_plan, then _face_system, unknowns z the
    weights on supp[1:]), in payoff units, has full rank at the
    equilibrium: by the block-triangular rank lemma, transversality of
    that family. A pure equilibrium has no unknowns: regular, smallest
    singular value inf."""
    support = cert.support
    z = np.concatenate([w[list(s[1:])] for w, s in zip(cert.point.as_floats(), support.supports)])
    if z.size:
        plan = _face_plan(game.strategy_counts, canonical_equilibrium_family(game, support),
                          (0,) * game.num_players)
        _, smin, regular = _svd_ranks(_face_system(game, plan)(z)[1])
    else:
        smin, regular = math.inf, True
    return replace(cert, jacobian_verdict="regular" if regular else "singular",
                   smallest_singular_value=float(smin))


@dataclass
class EnumerationResult:
    equilibria: list[EquilibriumCertificate] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    continuum: bool = False
    continuum_witness: MixedProfile | None = None

    @property
    def count(self) -> int:
        return len(self.equilibria)

    @property
    def degenerate(self) -> bool:
        """Witnessed degeneracy: a continuum, a warning, or a singular or
        boundary-degenerate certificate."""
        return self.continuum or bool(self.warnings) or any(
            c.jacobian_verdict == "singular" or c.boundary_degenerate
            for c in self.equilibria
        )


def support_label(support: SupportProfile) -> str:
    return " | ".join(",".join(map(str, s)) for s in support.supports)


def _answer(game: FiniteGame, profile: MixedProfile, *numbers) -> tuple:
    """(profile, *numbers) as reported: the one place a float game's exact answer
    becomes floats, each weight and number (inf kept) rounded once (game._rounded)."""
    if game.mode != FLOAT or not profile.exact:
        return profile, *numbers
    return profile_from_weights(profile.weights), *(
        x if x == math.inf else _rounded(*x.as_integer_ratio()) for x in numbers)


def enumerate_nash(game: FiniteGame, seed: int = 0) -> EnumerationResult:
    """Enumerate all Nash equilibria support by support.

    Candidates must pass the best-reply check, whose boundary flags
    (BestReplyReport.boundary) make a certificate boundary-degenerate.
    Degenerate strata become warnings; a witnessed equilibrium continuum
    makes the result report the continuum instead of a (meaningless)
    finite list. Each certificate carries the verdict of
    certify_equilibrium. The seed of the Newton starts is an index
    (game._index).
    """
    seed = _index(seed, "seed")
    result = EnumerationResult()
    found: list[EquilibriumCertificate] = []
    for support in enumerate_supports(game):
        try:
            candidates = solve_support(game, support, seed=seed)
        except SingularSystem as exc:
            result.warnings.append(f"support {support_label(support)}: {exc.reason}")
            candidates = exc.candidates
            if exc.witness is not None and not result.continuum:
                if best_reply_check(game, exc.witness).all_ok:
                    result.continuum = True
                    result.continuum_witness = _answer(game, exc.witness)[0]
        for cand in candidates:
            report = best_reply_check(game, cand)
            if not report.all_ok:
                continue
            point, residual, *margins = _answer(game, cand, max(report.equality_residuals),
                                                *report.inequality_margins)
            found.append(
                EquilibriumCertificate(
                    point=point,
                    support=support,
                    equality_residual=residual,
                    inequality_margins=tuple(margins),
                    boundary_degenerate=any(report.boundary),
                )
            )

    found.sort(key=lambda c: tuple(np.concatenate(c.point.as_floats())))

    if result.continuum:
        result.warnings.append("non-generic: continuum detected")
        result.equilibria = []
        return result

    result.equilibria = [certify_equilibrium(game, cert) for cert in found]
    return result
