"""Affine chart atlas on the product of projective strategy spaces.

Per player, the weight space is compactified projectively in the
homogenized coordinates (tilde basis): tilde_0 is the weight sum and
tilde_j (j >= 1) are the plain weights. Chart l = (l_1, ..., l_m) is
the affine piece where every player's tilde coordinate l_i equals 1;
its free coordinates are the remaining tilde entries. Every chart label
that comes in, a transition target included, is checked by
_validate_chart: one integral index per player, each in range.

Three kinds of hypersurface get chart-local defining functions:

* Coordinate(i, j), j >= 1: the hyperplane weight_j = 0 (tilde_j = 0).
* Coordinate(i, INF): the hyperplane at infinity, tilde_0 = 0.
* Coordinate(i, 0): the zeroth-weight hyperplane, in homogenized form
  tilde_0 - sum_{j>=1} tilde_j = 0.
* PayoffDiff(i, (j, k)): the zero set of Lambda^i_j - Lambda^i_k, the
  homogeneous payoff-slope difference of player i between own
  strategies j and k (index 0 contributing the zero form).

Players (0-based), indices and pair entries are integral, stored as ints.

Chart l misses exactly the hyperplanes tilde^i_{l_i} = 0, i.e.
Coordinate(i, l_i) for l_i >= 1 and Coordinate(i, INF) for l_i = 0;
posing one of them in the chart (its defining map, or a family that
lists it) raises ChartExcludesHypersurface.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .forms import MultilinearForm, _basis_matrix, homogeneous_decomposition
from .game import FLOAT, MEMBERSHIP_TOL, FiniteGame, MixedProfile, _exact, _integral, _numbers

INF = float("inf")


class ChartExcludesHypersurface(ValueError):
    """The requested hypersurface does not meet the requested chart."""


@dataclass(frozen=True)
class Coordinate:
    """Coordinate hyperplane of one player: index in {0,...,n_i} or INF."""

    player: int
    index: float  # int-valued, or INF

    def __post_init__(self):
        _normalise_player(self)
        if self.index != INF:
            if self.index < 0:
                raise ValueError(f"{self}: coordinate index must be >= 0 or INF")
            object.__setattr__(self, "index", _integral(self.index, f"{self}: coordinate index"))

    def __str__(self) -> str:
        j = "inf" if self.index == INF else str(self.index)
        return f"C:{self.player + 1}:{j}"


@dataclass(frozen=True)
class PayoffDiff:
    """Zero set of Lambda^i_j - Lambda^i_k for an own-strategy pair j < k."""

    player: int
    pair: tuple[int, int]

    def __post_init__(self):
        _normalise_player(self)
        j, k = (_integral(x, f"{self}: pair entry") for x in self.pair)
        object.__setattr__(self, "pair", (j, k))
        if not 0 <= j < k:
            raise ValueError(f"{self}: pair must satisfy 0 <= j < k")

    def __str__(self) -> str:
        j, k = self.pair
        return f"D:{self.player + 1}:{j}:{k}"


Hypersurface = Coordinate | PayoffDiff


def _normalise_player(h: Hypersurface) -> None:
    """Make h.player an int (_integral), or raise a ValueError naming h
    when it is not an integer >= 0."""
    if type(h.player) is not int:
        object.__setattr__(h, "player", _integral(h.player, f"{h}: player index"))
    if h.player < 0:
        raise ValueError(f"{h}: player index must be >= 0")


@dataclass(frozen=True)
class ChartPoint:
    """A point of one affine chart: per player the free tilde coordinates
    (the entry pinned to 1 is omitted)."""

    chart: tuple[int, ...]
    coords: tuple[np.ndarray, ...]

    @property
    def num_players(self) -> int:
        return len(self.chart)

    def full_vector(self, i: int) -> np.ndarray:
        one = Fraction(1) if self.coords[i].dtype == object else 1.0
        return np.insert(self.coords[i], self.chart[i], one)

    def full_vectors(self) -> tuple[np.ndarray, ...]:
        return tuple(self.full_vector(i) for i in range(self.num_players))


def _validate_chart(chart, counts) -> tuple[int, ...]:
    """The chart label as ints, once it has one integral index l_i per
    player with 0 <= l_i < counts[i]; otherwise a ValueError."""
    chart = tuple(_integral(l, "chart index") for l in chart)
    if len(chart) != len(counts):
        raise ValueError(f"chart needs {len(counts)} indices")
    for i, (l, c) in enumerate(zip(chart, counts)):
        if not 0 <= l < c:
            raise ValueError(f"chart index {l} out of range for player {i + 1}")
    return chart


def _validate_coords(game: FiniteGame, coords) -> None:
    """One finite length-n_i coordinate array per player, or a ValueError
    naming the 1-based player."""
    if len(coords) != game.num_players:
        k = min(len(coords), game.num_players) + 1
        missing = "has none" if len(coords) < game.num_players else "is not in the game"
        raise ValueError(f"one coordinate vector per player required: player {k} {missing}")
    for i, arr in enumerate(coords):
        if arr.dtype != object and not np.isfinite(arr).all():
            raise ValueError(f"non-finite coordinate for player {i + 1}")
        if arr.shape != (game.strategy_counts[i] - 1,):
            raise ValueError(
                f"player {i + 1} takes {game.strategy_counts[i] - 1} chart coordinates"
            )


def chart_point(game: FiniteGame, chart, coords, mode: str = FLOAT) -> ChartPoint:
    """Validated chart point; coords has one length-n_i vector per player."""
    chart = _validate_chart(chart, game.strategy_counts)
    out = tuple(_numbers(c, mode) for c in coords)
    _validate_coords(game, out)
    return ChartPoint(chart, out)


def all_charts(game: FiniteGame) -> list[tuple[int, ...]]:
    """All chart labels, lexicographic; there are prod(n_i + 1) of them."""
    return [tuple(l) for l in itertools.product(*(range(c) for c in game.strategy_counts))]


def read_chart(vectors, chart) -> ChartPoint:
    """Inverse of ChartPoint.full_vectors up to projective scaling:
    rescale each player's vector so the chart slot is 1, then drop that
    slot. The chart is checked against the vectors' lengths
    (_validate_chart)."""
    chart = _validate_chart(chart, [len(v) for v in vectors])
    coords = []
    for i, (v, l) in enumerate(zip(vectors, chart)):
        v = np.asarray(v)
        d = v[l]
        if d == 0:
            raise ZeroDivisionError(
                f"player {i + 1}: coordinate {l} is zero; point is outside chart"
            )
        scaled = v * (1 / Fraction(d)) if v.dtype == object else v / d
        coords.append(np.delete(scaled, l))
    return ChartPoint(chart, tuple(coords))


def transition(point: ChartPoint, target) -> ChartPoint:
    """The same projective point read in another chart.

    Raises ValueError for a target that is not a chart of the point's
    game (read_chart), and ZeroDivisionError when the point lies on a
    hyperplane tilde^i_{t_i} = 0 excluded from the target chart.
    """
    return read_chart(point.full_vectors(), target)


def chart_zero_point(profile: MixedProfile) -> ChartPoint:
    """A mixed profile on the sum-to-one set, read in chart (0, ..., 0):
    the free coordinates are the weights with index >= 1."""
    coords = tuple(w[1:] for w in profile.weights)
    return ChartPoint((0,) * profile.num_players, coords)


def _pinned_hyperplane(i: int, l: int) -> Coordinate:
    """The hyperplane tilde^i_l = 0 that chart slot l of player i misses."""
    return Coordinate(i, INF if l == 0 else l)


def chart_excludes(chart: tuple[int, ...], h: Hypersurface) -> bool:
    """Whether the hypersurface misses the chart entirely."""
    return h == _pinned_hyperplane(h.player, chart[h.player])


def excluded_hypersurfaces(game: FiniteGame, chart) -> list[Coordinate]:
    """The coordinate hyperplanes forming the chart's complement."""
    chart = _validate_chart(chart, game.strategy_counts)
    return [_pinned_hyperplane(i, l) for i, l in enumerate(chart)]


def _validate_hypersurface(game: FiniteGame, h: Hypersurface) -> None:
    """Raise ValueError, naming h, unless h is a hypersurface of the game."""
    if not 0 <= h.player < game.num_players:
        raise ValueError(f"{h}: no player {h.player + 1}")
    n = game.strategy_counts[h.player] - 1
    if isinstance(h, Coordinate):
        if h.index != INF and h.index > n:
            raise ValueError(f"{h}: coordinate index {h.index} out of range")
    elif h.pair[1] > n:
        raise ValueError(f"{h}: pair index {h.pair[1]} out of range")


def _check_in_chart(game: FiniteGame, hypersurfaces, chart) -> tuple[int, ...]:
    """The validated chart, once each hypersurface is checked against the
    game and the chart: ValueError for one listed twice,
    ChartExcludesHypersurface for one the chart misses."""
    chart = _validate_chart(chart, game.strategy_counts)
    seen = set()
    for h in hypersurfaces:
        _validate_hypersurface(game, h)
        if h in seen:
            raise ValueError(f"{h} is listed twice")
        seen.add(h)
        if chart_excludes(chart, h):
            raise ChartExcludesHypersurface(
                f"{h} has no points in chart {format_chart(chart)}: the chart "
                "pins that tilde coordinate to 1"
            )
    return chart


def defining_map(game: FiniteGame, h: Hypersurface, chart) -> MultilinearForm:
    """Chart-local defining function, as a form ready for eval/grad.

    The returned form's blocks say which players' chart coordinates it
    reads; its pinned indices are the chart slots.
    """
    chart = _check_in_chart(game, (h,), chart)
    i = h.player
    if isinstance(h, Coordinate):
        # weight_j = 0 is row j of M (gamma = M tilde, forms._basis_matrix);
        # the hyperplane at infinity is tilde_0 = 0
        c = game.strategy_counts[i]
        vec = np.eye(c)[0] if h.index == INF else _basis_matrix(c, False)[h.index]
        return MultilinearForm((i,), _numbers(vec, game.mode), (chart[i],))

    j, k = h.pair
    decomp = homogeneous_decomposition(game, i)
    coeffs = decomp.Lambdas[j].coeffs - decomp.Lambdas[k].coeffs
    blocks = tuple(b for b in range(game.num_players) if b != i)
    pinned = tuple(chart[b] for b in blocks)
    return MultilinearForm(blocks, coeffs, pinned)


def on_hypersurface(game: FiniteGame, h: Hypersurface, point: ChartPoint) -> bool:
    """Membership test: |defining value| <= tol after normalizing the
    form by its largest coefficient, tol 0 for an exact form (a rational
    game) at an exact point (game._exact on its chart coordinates), else
    MEMBERSHIP_TOL. An identically zero form means the hypersurface
    degenerated to the whole space, so every point passes.
    """
    form = defining_map(game, h, point.chart)
    value = form.eval([point.coords[b] for b in form.blocks])
    tol = 0 if form.is_rational and _exact(point.coords) else MEMBERSHIP_TOL
    return abs(value) <= tol * form.max_abs_coeff()


def format_chart(chart) -> str:
    return ",".join(str(int(l)) for l in chart)


def parse_chart(text: str, game: FiniteGame) -> tuple[int, ...]:
    try:
        chart = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad chart spec {text!r}: expected l1,l2,...") from None
    return _validate_chart(chart, game.strategy_counts)


def parse_hypersurface(text: str, game: FiniteGame | None = None) -> Hypersurface:
    """Parse C:i:j / C:i:inf / D:i:j:k with 1-based player numbers."""
    parts = text.split(":")
    try:
        if parts[0] == "C" and len(parts) == 3:
            player = int(parts[1]) - 1
            idx = INF if parts[2] == "inf" else int(parts[2])
            h: Hypersurface = Coordinate(player, idx)
        elif parts[0] == "D" and len(parts) == 4:
            h = PayoffDiff(int(parts[1]) - 1, (int(parts[2]), int(parts[3])))
        else:
            raise ValueError
    except ValueError:
        raise ValueError(
            f"bad hypersurface {text!r}: expected C:i:j, C:i:inf, or D:i:j:k"
        ) from None
    if game is not None:
        _validate_hypersurface(game, h)
    return h
