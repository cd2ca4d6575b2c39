"""Affine chart atlas on the product of projective strategy spaces.

Per player, the weight space is compactified projectively in the
homogenized coordinates (tilde basis): tilde_0 is the weight sum and
tilde_j (j >= 1) are the plain weights. Chart l = (l_1, ..., l_m) is
the affine piece where every player's tilde coordinate l_i equals 1;
its free coordinates are the remaining tilde entries. Every chart label
that comes in, a transition target included, is checked by
_validate_chart: one index per player (game._indices), each in range.

Three kinds of hypersurface get chart-local defining functions:

* Coordinate(i, j), j >= 1: the hyperplane weight_j = 0 (tilde_j = 0).
* Coordinate(i, INF): the hyperplane at infinity, tilde_0 = 0.
* Coordinate(i, 0): the zeroth-weight hyperplane, in homogenized form
  tilde_0 - sum_{j>=1} tilde_j = 0.
* PayoffDiff(i, (j, k)): the zero set of Lambda^i_j - Lambda^i_k, the
  homogeneous payoff-slope difference of player i between own
  strategies j and k (index 0 contributing the zero form).

Each is built exactly from the integer payoff tables (_exact_map):
defining_map rounds it once into a float game's numbers, and
on_hypersurface decides membership on it exactly (_on). Both check
their inputs first; _exact_map and _on take checked ones. A chart
point's coordinates are checked by game._check_blocks (one (n_i,) block
of numbers per player) and are exact by their values (game._exact),
never by their dtype. A hypersurface's player (0-based), coordinate
index and pair entries are indices (game._index); one whose fields are
not is named by its repr, as its label needs them.

Chart l misses exactly the hyperplanes tilde^i_{l_i} = 0, i.e.
Coordinate(i, l_i) for l_i >= 1 and Coordinate(i, INF) for l_i = 0;
posing one of them in the chart (its defining map, or a family that
lists it) raises ChartExcludesHypersurface.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .forms import MultilinearForm, _basis_matrix, _quotients, _tilde_ints
# homogeneous_decomposition is not called here: bench/spans.py traces it under this name
from .forms import homogeneous_decomposition  # noqa: F401
from .game import (FLOAT, MEMBERSHIP_TOL, RATIONAL, FiniteGame, MixedProfile, _check_blocks, _exact,
                   _index, _indices, _numbers, _sequence)

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
        if (type(self.index) is not int or self.index < 0) and self.index != INF:
            object.__setattr__(self, "index", _index(self.index, f"{self!r}: coordinate index"))

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
        pair = self.pair
        if type(pair) is not tuple or len(pair) != 2 or not all(type(x) is int and x >= 0
                                                                 for x in pair):
            name = f"{self!r}: pair"
            pair = tuple(_index(x, f"{name} entry") for x in _sequence(pair, name, 2))
            object.__setattr__(self, "pair", pair)
        if pair[0] >= pair[1]:
            raise ValueError(f"{self}: pair must satisfy 0 <= j < k")

    def __str__(self) -> str:
        j, k = self.pair
        return f"D:{self.player + 1}:{j}:{k}"


Hypersurface = Coordinate | PayoffDiff


def _normalise_player(h: Hypersurface) -> None:
    """Make h.player an int, or raise _index's ValueError naming h."""
    if type(h.player) is not int or h.player < 0:
        object.__setattr__(h, "player", _index(h.player, f"{h!r}: player index"))


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
        """Player i's full tilde vector, the chart slot's 1 put back; i is
        a player index (game._index)."""
        i = _index(i, "player index", self.num_players)
        if _exact([self.coords[i]]):  # as objects: an int stays a Python int
            return np.insert(np.asarray(self.coords[i], dtype=object), self.chart[i], Fraction(1))
        return np.insert(self.coords[i], self.chart[i], 1.0)

    def full_vectors(self) -> tuple[np.ndarray, ...]:
        return tuple(self.full_vector(i) for i in range(self.num_players))


def _validate_chart(chart, counts) -> tuple[int, ...]:
    """The chart label as a tuple of ints, once it is a sequence of one
    index l_i per player with 0 <= l_i < counts[i] (game._indices);
    otherwise a ValueError naming it."""
    return _indices(chart, "chart", "player {} chart index", counts)


def _check_coords(game: FiniteGame, coords, mode: str | None = None) -> None:
    """One sequence of n_i chart coordinates per player (game._check_blocks)."""
    _check_blocks(coords, [c - 1 for c in game.strategy_counts], "chart coordinate", mode)


def chart_point(game: FiniteGame, chart, coords, mode: str = FLOAT) -> ChartPoint:
    """Validated chart point; coords has one length-n_i vector per player,
    checked (_check_coords) and then read as the mode's numbers."""
    chart = _validate_chart(chart, game.strategy_counts)
    _check_coords(game, coords, mode)
    return ChartPoint(chart, tuple(_numbers(c, mode, "chart coordinate") for c in coords))


def all_charts(game: FiniteGame) -> list[tuple[int, ...]]:
    """All chart labels, lexicographic; there are prod(n_i + 1) of them."""
    return [tuple(l) for l in itertools.product(*(range(c) for c in game.strategy_counts))]


def read_chart(vectors, chart) -> ChartPoint:
    """Inverse of ChartPoint.full_vectors up to projective scaling:
    rescale each player's vector so the chart slot is 1, then drop that
    slot. The chart is checked against the vectors' lengths
    (_validate_chart) and their entries are numbers (_check_blocks); an
    exact vector (game._exact) is read exactly, any other as floats, each
    entry a finite one (game._numbers)."""
    counts = [len(v) for v in vectors]
    chart = _validate_chart(chart, counts)
    _check_blocks(vectors, counts, "tilde coordinate")
    coords = []
    for i, (v, l) in enumerate(zip(vectors, chart)):
        exact = _exact([v])
        name = f"player {i + 1} tilde coordinate"
        v = np.asarray(v, dtype=object) if exact else _numbers(v, FLOAT, name)
        d = v[l]
        if d == 0:
            raise ZeroDivisionError(
                f"player {i + 1}: coordinate {l} is zero; point is outside chart"
            )
        scaled = v * (1 / Fraction(d)) if exact else v / d
        coords.append(np.delete(scaled, l))
    return ChartPoint(chart, tuple(coords))


def transition(point: ChartPoint, target) -> ChartPoint:
    """The same projective point read in another chart.

    Raises ValueError for a target that is not a chart of the point's
    game or a coordinate that is no number (read_chart), and
    ZeroDivisionError when the point lies on a hyperplane tilde^i_{t_i}
    = 0 excluded from the target chart.
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
    """Whether the hypersurface misses the chart entirely: it is the
    hyperplane the chart pins (_pinned_hyperplane)."""
    return h == _pinned_hyperplane(h.player, chart[h.player])


def excluded_hypersurfaces(game: FiniteGame, chart) -> list[Coordinate]:
    """The coordinate hyperplanes forming the chart's complement."""
    chart = _validate_chart(chart, game.strategy_counts)
    return [_pinned_hyperplane(i, l) for i, l in enumerate(chart)]


def _validate_hypersurface(counts, h: Hypersurface) -> None:
    """Raise _index's ValueError, naming h, unless h is a hypersurface of
    a game with these strategy counts: its player below their number, its
    coordinate index or its pair's larger entry below that player's
    count."""
    _index(h.player, f"{h}: player index", len(counts))
    if isinstance(h, PayoffDiff):
        _index(h.pair[1], f"{h}: pair index", counts[h.player])
    elif h.index != INF:
        _index(h.index, f"{h}: coordinate index", counts[h.player])


def _check_members(counts, hypersurfaces) -> list[Hypersurface]:
    """The hypersurfaces as a list, once each is one of a game with these
    strategy counts (_validate_hypersurface) and none is listed twice."""
    members, seen = list(hypersurfaces), set()
    for h in members:
        _validate_hypersurface(counts, h)
        if h in seen:
            raise ValueError(f"{h} is listed twice")
        seen.add(h)
    return members


def _check_in_chart(chart, hypersurfaces) -> None:
    """Checked hypersurfaces (_check_members) against a checked chart:
    ChartExcludesHypersurface for one the chart misses."""
    for h in hypersurfaces:
        if chart_excludes(chart, h):
            raise ChartExcludesHypersurface(
                f"{h} has no points in chart {format_chart(chart)}: the chart "
                "pins that tilde coordinate to 1"
            )


def _checked_chart(game: FiniteGame, h: Hypersurface, chart) -> tuple[int, ...]:
    """The chart (_validate_chart), once h is a hypersurface of the game
    (_check_members) that meets it (_check_in_chart)."""
    chart = _validate_chart(chart, game.strategy_counts)
    _check_in_chart(chart, _check_members(game.strategy_counts, (h,)))
    return chart


def _exact_map(game: FiniteGame, h: Hypersurface, chart) -> tuple[MultilinearForm, int]:
    """h's form in a chart it meets (both checked) in object ints, and
    their scale: for a coordinate hyperplane e_0 (INF) or row j of M over 1,
    for Lambda^i_j - Lambda^i_k player i's integer payoffs at j less those
    at k (FiniteGame.integer_utilities) in tilde coordinates, over theirs."""
    i = h.player
    if isinstance(h, Coordinate):
        c = game.strategy_counts[i]
        vec = np.eye(c, dtype=int)[0] if h.index == INF else _basis_matrix(c)[h.index]
        return MultilinearForm((i,), vec.astype(object), (chart[i],)), 1
    (ints, scale), (j, k) = game.integer_utilities[i], h.pair
    blocks = tuple(b for b in range(game.num_players) if b != i)
    diff = np.asarray(ints.take(j, axis=i) - ints.take(k, axis=i), dtype=object)
    return MultilinearForm(blocks, _tilde_ints(diff), tuple(chart[b] for b in blocks)), scale


def defining_map(game: FiniteGame, h: Hypersurface, chart) -> MultilinearForm:
    """Chart-local defining function, as a form ready for eval/grad: blocks
    the players whose chart coordinates it reads, pinned the chart slots.
    _exact_map's form over its scale in the game's numbers, so each float
    game coefficient is rounded once, +-inf beyond the float range. h and
    the chart are checked first (_checked_chart)."""
    form, scale = _exact_map(game, h, _checked_chart(game, h, chart))
    return replace(form, coeffs=_quotients(form.coeffs, scale, game.mode == RATIONAL))


def on_hypersurface(game: FiniteGame, h: Hypersurface, point: ChartPoint) -> bool:
    """Membership (_on), exactly, once h, the point's chart
    (_checked_chart) and its coordinates (_check_coords) are checked, as
    genericity.transversal_at checks them."""
    chart = _checked_chart(game, h, point.chart)
    _check_coords(game, point.coords)
    return bool(_on(game, [h], chart, point.coords))


def _on(game: FiniteGame, hypersurfaces, chart, coords) -> list:
    """The hypersurfaces that contain a point, all checked, decided
    exactly: h holds when |_exact_map's form at the chart coordinates|,
    each read once as its exact value (a float by its binary one), is at
    most tol times its largest |coefficient|, tol 0 at an exact point
    (game._exact), else MEMBERSHIP_TOL. A zero form holds all."""
    tol = Fraction(0 if _exact(coords) else MEMBERSHIP_TOL)
    coords = [_numbers(c, RATIONAL, "chart coordinate") for c in coords]
    out = []
    for h in hypersurfaces:
        form = _exact_map(game, h, chart)[0]
        value = form.eval([coords[b] for b in form.blocks])
        if abs(value) <= tol * max(map(abs, form.coeffs.flat)):
            out.append(h)
    return out


def format_chart(chart) -> str:
    """The chart label as text, l1,l2,...; each entry is an index
    (game._indices)."""
    return ",".join(map(str, _indices(chart, "chart", "player {} chart index")))


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
        _validate_hypersurface(game.strategy_counts, h)
    return h
