"""Finite games in normal form and mixed strategy profiles.

A game holds one dense payoff tensor per player, indexed by the pure
strategy combination (j_1, ..., j_m) with j_k in {0, ..., n_k}. Two
numeric modes exist: "float" (float64 tensors) and "rational"
(object tensors of ``fractions.Fraction``), fixed at construction.

Every number from outside (a payoff, a weight, a chart coordinate, a
game file's token) is read by one rule, _number, and every per-player
block of them is checked by _check_blocks, built on it: a value that is
no number is one ValueError naming the input and the value, in both
modes. Every index from outside (a player, a strategy, a chart slot, a
coordinate label, a strategy count) is read by one rule too, _index, and
a sequence of them by _sequence and _indices, built on it: a value that
is no index, or a sequence of the wrong type or length, is one
ValueError naming the input and the value.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

FLOAT = "float"
RATIONAL = "rational"

# Tolerances, the one table. Exact numbers (ints, Fractions) take none. Player
# i's payoff unit is 2**FiniteGame.payoff_exponents[i].
WEIGHT_TOL = 1e-9  # weights: float zero weights, sums to 1 and [0, 1] bounds
CHECK_TOL = 1e-8  # payoff unit: float best-reply residuals, margins, boundary
RESIDUAL_TOL = 1e-10  # payoff unit: a Newton point within it is a root
DEDUP_TOL = 1e-6  # face coordinates: Newton roots closer than it are one
MEMBERSHIP_TOL = 1e-8  # the defining form's largest coefficient: membership
RANK_TOL = 1e-8  # the largest singular value (at least 1): rank cutoff
NEWTON_MAX_ITERS = 100  # a count: Newton steps per start
NEWTON_HALVINGS = 9  # a count: step lengths 2**-r tried per Newton step
RANDOM_STARTS = 32  # a count: random Newton starts per system

# The largest decimal exponent a numeral string may carry where it becomes
# a Fraction (10**4300 has the 4,300 digits that Python allows an int
# string): a game file's parse costs in proportion to its length.
_MAX_EXPONENT = 4300


class GameFormatError(ValueError):
    """Raised on malformed game files; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class FiniteGame:
    """A finite m-player game in normal form.

    strategy_counts[i] is the number of pure strategies of player i
    (so n_i + 1), each at least 2. utilities[i] has shape
    strategy_counts, stored row-major with the last player's index
    varying fastest.
    """

    strategy_counts: tuple[int, ...]
    utilities: tuple[np.ndarray, ...]
    mode: str = FLOAT

    @property
    def num_players(self) -> int:
        return len(self.strategy_counts)

    @cached_property
    def integer_utilities(self) -> tuple[tuple[np.ndarray, int], ...]:
        """Per player, (ints, scale) with utilities[i] == ints / scale
        exactly: ints is an object tensor of Python ints and scale is the
        lcm of the entries' denominators (a power of two in float mode)."""
        out = []
        for u in self.utilities:
            nums, scale = _integer_ratio(u.reshape(-1).tolist(), "payoff")
            out.append((np.array(nums, dtype=object).reshape(u.shape), scale))
        return tuple(out)

    @cached_property
    def integer_rows(self) -> tuple[list[list[int]], ...]:
        """Per player i, its integer_utilities ints as one list of Python
        ints per own strategy over the other players' pure profiles in C
        order ([own][partner] for two players): the one integer table of
        the slopes, forms._slope_nums."""
        return tuple(np.moveaxis(ints, i, 0).reshape(c, -1).tolist() for i, ((ints, _), c)
                     in enumerate(zip(self.integer_utilities, self.strategy_counts)))

    @cached_property
    def _face_rows(self) -> dict[tuple, tuple[list, list]]:
        """The exact route's face-block rows, built once per game: per
        solving pair i < j and held profile h of the other players (their
        strategies in player order, () for two players), the key (i, j, h),
        one _face_table per pair player, i's from j's payoffs and j's from
        i's, each from the [own][partner] tables of integer_utilities by
        one axis move and one reshape (the held axes keep player order). A
        one-player game's partner has one strategy and no payoffs.
        equilibrium._face_block picks a support's block from them."""
        counts, ints = self.strategy_counts, [u for u, _ in self.integer_utilities]
        if len(counts) == 1:
            counts += (1,)
            ints = [ints[0].reshape(counts), np.zeros(counts, dtype=object)]
        out = {}
        for i, j in itertools.combinations(range(len(counts)), 2):
            held = itertools.product(*(range(c) for b, c in enumerate(counts) if b != i and b != j))
            ui, uj = (np.moveaxis(ints[k], (k, p), (-2, -1)).reshape(-1, counts[k], counts[p])
                      .tolist() for k, p in ((i, j), (j, i)))
            for h, a, b in zip(held, ui, uj):
                out[i, j, h] = (_face_table(b), _face_table(a))
        return out

    @cached_property
    def payoff_exponents(self) -> tuple[int, ...]:
        """Per player, the e of its payoff unit 2**e: the largest range of
        its payoffs along its own axis, ptp(u_i, axis=i).max(), lies in
        [2**e, 2**(e + 1)), or e = 0 if that range is 0, decided exactly
        by bit lengths. Offsets leave e alone; a factor 2**k adds k."""
        out = []
        for i, (ints, scale) in enumerate(self.integer_utilities):
            # a one-player game's range along its own axis is one number
            spread = max(np.ravel(ints.max(axis=i) - ints.min(axis=i)).tolist())
            # floor(log2(spread / scale)) is e or e - 1
            e = spread.bit_length() - scale.bit_length()
            out.append(e - (spread << max(-e, 0) < scale << max(e, 0)) if spread else 0)
        return tuple(out)


def _face_table(u) -> dict[tuple[int, ...], list[list[list[int] | None]]]:
    """Every face-block row of the player solved for from its partner's
    payoffs u[t][s] (the partner plays t, the player s): table[supp][o][t]
    for each own support supp (a sorted tuple), the partner's base o and a
    partner strategy t > o (None for t <= o, which no block reads). With
    s0 = supp[0] and d_s = u[t][s] - u[o][s], the row is (d_s - d_{s0},
    s in supp[1:] | -d_{s0}); it depends on nothing else of a support."""
    n = len(u[0])
    diffs = [[[x - y for x, y in zip(ut, base)] for ut in u[o + 1:]] for o, base in enumerate(u)]
    table = {}
    for size in range(1, n + 1):
        for supp in itertools.combinations(range(n), size):
            s0, tail = supp[0], supp[1:]
            table[supp] = [[None] * (o + 1) + [[d[s] - d[s0] for s in tail] + [-d[s0]] for d in ds]
                           for o, ds in enumerate(diffs)]
    return table


@dataclass(frozen=True)
class MixedProfile:
    """One weight vector per player; on A the weights sum to 1."""

    weights: tuple[np.ndarray, ...]

    @property
    def num_players(self) -> int:
        return len(self.weights)

    @cached_property
    def exact(self) -> bool:
        """Whether the weights are exact (_exact), decided once per profile:
        exact weights are compared exactly, float weights with a tolerance."""
        return _exact(self.weights)

    def as_floats(self) -> tuple[np.ndarray, ...]:
        return tuple(np.asarray(w, dtype=float) for w in self.weights)

    def in_A(self) -> bool:
        """Each player's weights sum to 1: exactly when MixedProfile.exact,
        else within WEIGHT_TOL."""
        tol = 0 if self.exact else WEIGHT_TOL
        return all(abs(np.sum(w) - 1) <= tol for w in self.weights)

    def in_G(self) -> bool:
        """in_A, and every weight in [0, 1] (within WEIGHT_TOL unless
        MixedProfile.exact)."""
        tol = 0 if self.exact else WEIGHT_TOL
        return self.in_A() and all(-tol <= x <= 1 + tol for w in self.weights for x in w)


@dataclass(frozen=True)
class SupportProfile:
    """Per player, the sorted indices of strategies used with nonzero
    weight: one sequence of indices (_index) per player, as a tuple of
    tuples of ints once built."""

    supports: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if type(self.supports) is not tuple or not all(  # not yet a tuple of tuples of indices
                type(supp) is tuple and all(type(j) is int and j >= 0 for j in supp)
                for supp in self.supports):
            object.__setattr__(self, "supports", tuple(
                _indices(supp, f"player {i + 1} support", f"player {i + 1} support entry")
                for i, supp in enumerate(_sequence(self.supports, "support"))))
        for supp in self.supports:
            if not supp:
                raise ValueError("supports must be nonempty")
            if tuple(sorted(set(supp))) != supp:
                raise ValueError("supports must be sorted and duplicate-free")


def _check_support(support: SupportProfile, counts) -> tuple[tuple[int, ...], ...]:
    """support.supports once it has one support per player and player i's
    entries (sorted ints >= 0, SupportProfile) lie below counts[i]: else
    _sequence's or _index's ValueError. The one support check against a
    game."""
    supports = support.supports
    if len(supports) != len(counts):
        _sequence(supports, "support", len(counts))
    for i, (supp, c) in enumerate(zip(supports, counts)):
        if supp[-1] >= c:
            _index(supp[-1], f"player {i + 1} support entry", c)
    return supports


def _index(x, what: str, stop: float = math.inf, start: int = 0) -> int:
    """The one rule for an index from outside, named by what: x as an int
    when it is integral (2, 2.0, a NumPy integer; never truncated), at
    least start and below stop; else a ValueError naming what and x. What
    int() refuses (None, inf, nan, a string, a sequence) is that
    ValueError too."""
    if type(x) is not int:
        try:
            i = int(x)
            if i != x:  # never truncated
                raise ValueError
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{what} {x} is not an integer") from None
        x = i
    if not start <= x < stop:
        raise ValueError(f"{what} {x} must be >= {start}" if x < start else f"{what} {x} out of range")
    return x


def _sequence(xs, what: str, length: int | None = None) -> tuple:
    """xs as a tuple when it is a sequence (anything iterable but a
    string) of length entries, or of any length when length is None;
    else a ValueError naming what and xs."""
    try:
        if isinstance(xs, str):
            raise TypeError
        xs = tuple(xs)  # a tuple as it is
    except TypeError:
        raise ValueError(f"{what} {xs} is not a sequence") from None
    if length is not None and len(xs) != length:
        raise ValueError(f"{what} {xs} has length {len(xs)}, expected {length}")
    return xs


def _indices(xs, name: str, what: str, stops=None, start: int = 0) -> tuple[int, ...]:
    """A sequence of indices from outside as a tuple of ints: xs a
    sequence named name (_sequence), its entry k an index (_index) named
    what.format(k + 1) ("player {} chart index" names player k + 1) of at
    least start and, with stops given, one entry per stop, below stops[k].
    A tuple of ints that passes is returned as it is, after one pass."""
    xs = _sequence(xs, name, None if stops is None else len(stops))
    stops = stops or [math.inf] * len(xs)
    if all(type(x) is int and start <= x < s for x, s in zip(xs, stops)):
        return xs  # the common case, every check passed
    return tuple(_index(x, what.format(k + 1), s, start) for k, (x, s) in enumerate(zip(xs, stops)))


def make_game(
    strategy_counts,
    utilities,
    mode: str = FLOAT,
) -> FiniteGame:
    """Validate shapes and entries and build a FiniteGame.

    strategy_counts is a sequence of at least one count, each an index
    (_indices) of at least 2. utilities may be nested sequences or arrays
    of any shape with the right number of entries, read row-major; each
    entry becomes the mode's number (_number).
    """
    counts = _indices(strategy_counts, "strategy counts", "player {} strategy count", start=2)
    if len(counts) < 1:
        raise ValueError("need at least one player")
    if mode not in (FLOAT, RATIONAL):
        raise ValueError(f"unknown mode {mode!r}")
    utilities = list(utilities)
    if len(utilities) != len(counts):
        raise ValueError(
            f"expected {len(counts)} utility tensors, got {len(utilities)}"
        )
    size = math.prod(counts)
    tensors = []
    for i, u in enumerate(utilities):
        flat = np.asarray(u, dtype=object).reshape(-1)
        if flat.size != size:
            raise ValueError(f"utility tensor {i} has {flat.size} entries, expected {size}")
        tensors.append(_numbers(flat, mode, f"utility tensor {i} entry").reshape(counts))
    return FiniteGame(counts, tuple(tensors), mode=mode)


def _number(x, what: str, mode: str | None = None):
    """The one rule for a number from outside, named by what: an int, a
    Fraction, a NumPy integer, a float or a NumPy float, and where a mode
    is given also a numeral string (p/q too; a decimal exponent beyond
    _MAX_EXPONENT is refused before any Fraction is built). mode None
    returns x as it is (checked, not converted), FLOAT float(x) and
    RATIONAL x as a Fraction, exactly. A float must be finite, and so must
    float(x) in FLOAT mode. Anything else is a ValueError naming what and x."""
    if (isinstance(x, float) and mode != RATIONAL and math.isfinite(x)
            or type(x) is Fraction and mode != FLOAT):
        return x  # the common case: already a number of the mode
    y = None
    try:
        if isinstance(x, str) and mode is not None:
            if mode == FLOAT and "/" not in x:
                y = float(x)
            elif x.lstrip("+-").isdigit():  # an integer numeral, read without Fraction's regex
                y = Fraction(int(x))
            elif abs(int(x.lower().partition("e")[2] or 0)) <= _MAX_EXPONENT:
                y = Fraction(x)
        elif isinstance(x, (int, float, Fraction, np.integer, np.floating)):
            y = x
        if mode == FLOAT:
            y = float(y)
        elif mode == RATIONAL and type(y) is not Fraction:
            y = Fraction(int(y)) if isinstance(y, np.integer) else Fraction(*y.as_integer_ratio())
    except (ValueError, ZeroDivisionError, OverflowError, TypeError, AttributeError):
        y = None
    if y is None or isinstance(y, (float, np.floating)) and not math.isfinite(y):
        raise ValueError(f"{what} {x} is not a number")
    return y


def _numbers(values, mode: str, what: str) -> np.ndarray:
    """values, flattened row-major, as a 1-D array of the mode's numbers
    (Fractions in an object array for RATIONAL, else float64), each read
    by _number."""
    flat = np.asarray(values, dtype=object).reshape(-1).tolist()
    return np.array([_number(x, what, mode) for x in flat],
                    dtype=object if mode == RATIONAL else float)


def _check_blocks(blocks, counts, what: str, mode: str | None = None) -> None:
    """One sequence of counts[i] numbers per player i: a wrong block count,
    a block whose shape is not (counts[i],) or an entry that is no number
    (_number in mode) is a ValueError naming the 1-based player. The blocks
    are checked, not converted, so their exactness stays _exact's."""
    if len(blocks) > len(counts):
        raise ValueError(f"no player {len(counts) + 1}")
    for i, c in enumerate(counts):
        block = np.asarray(blocks[i] if i < len(blocks) else (), dtype=object)
        if block.shape != (c,):
            got = len(block) if block.ndim == 1 else block.shape
            raise ValueError(f"player {i + 1} takes {c} {what}s, got {got}")
        name = f"player {i + 1} {what}"
        for x in block.tolist():
            _number(x, name, mode)


def profile_from_weights(weights, mode: str = FLOAT) -> MixedProfile:
    """Build a MixedProfile from per-player weight sequences, each weight
    read by _number."""
    return MixedProfile(tuple(_numbers(w, mode, f"player {i + 1} weight")
                              for i, w in enumerate(weights)))


def _exact(weights) -> bool:
    """Weights that are all ints or Fractions (a NumPy integer is not),
    whatever the game's mode: the one test of whether numbers are exact,
    so compared exactly, while float numbers get a tolerance."""
    return all(isinstance(x, (int, Fraction)) for w in weights for x in w)


def _integer_ratio(values, what: str) -> tuple[list[int], int]:
    """Numbers as integer numerators over the lcm of their denominators,
    exactly, the one rule that makes integers of numbers: an int, a Fraction
    or a float (a dyadic rational) by its as_integer_ratio, a NumPy integer,
    which has none, by int(), so it never wraps. A value with no integer
    ratio is _number's ValueError, naming it as what."""
    try:
        ratios = [(int(x), 1) if isinstance(x, np.integer) else x.as_integer_ratio()
                  for x in values]
    except (AttributeError, OverflowError, ValueError):
        for x in values:
            _number(x, what)
        raise
    lcm = math.lcm(*(d for _, d in ratios))
    return [n * (lcm // d) for n, d in ratios], lcm


def _rounded(x: int, den: int) -> float:
    """x / den rounded once to float, +-inf beyond the float range: the one rounding rule."""
    try:
        return x / den
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def support_of(profile: MixedProfile) -> SupportProfile:
    """Indices of the weights that count as nonzero, per player.

    Exact weights (MixedProfile.exact) are compared exactly, != 0; float
    weights count when |weight| > WEIGHT_TOL.
    """
    supports = []
    for w in profile.weights:
        if profile.exact:
            supp = tuple(j for j, x in enumerate(w) if x != 0)
        else:
            supp = tuple(int(j) for j in np.nonzero(np.abs(w) > WEIGHT_TOL)[0])
        if not supp:
            raise ValueError("profile has an all-zero weight vector")
        supports.append(supp)
    return SupportProfile(tuple(supports))


def random_game(strategy_counts, seed: int, distribution: str = "uniform") -> FiniteGame:
    """Seeded random game with i.i.d. entries, float mode.

    distribution: "uniform" for uniform[-1, 1], "normal" for standard normal.
    The strategy counts are checked as make_game checks them (_indices).
    """
    counts = _indices(strategy_counts, "strategy counts", "player {} strategy count", start=2)
    rng = np.random.default_rng(_index(seed, "seed"))
    tensors = []
    for _ in counts:
        if distribution == "uniform":
            t = rng.uniform(-1.0, 1.0, size=counts)
        elif distribution == "normal":
            t = rng.standard_normal(size=counts)
        else:
            raise ValueError(f"unknown distribution {distribution!r}")
        tensors.append(t)
    return make_game(counts, tensors, mode=FLOAT)


# ---------------------------------------------------------------------------
# Game file format
#
#   # comments run to end of line
#   players m
#   strategies c_1 ... c_m
#   payoff 1
#   <c_1 * ... * c_m numbers, row-major, last player's index fastest>
#   ...
#   payoff m
#   <numbers>
#
# Numbers are decimals or rationals p/q. A file containing any p/q token
# is parsed in rational mode, otherwise in float mode.
# ---------------------------------------------------------------------------


def _tokenize(text: str):
    """Yield (token, line_number) with comments stripped."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for tok in body.split():
            yield tok, lineno


def parse_game(text: str, mode: str | None = None) -> FiniteGame:
    """Parse the game file format; mode None means infer from the tokens.

    A malformed file raises GameFormatError with the offending token's
    line; one reader checks each keyword and one each count, and each
    strategy count is an index of at least 2 (_index), as make_game
    reads it."""
    tokens = list(_tokenize(text))
    pos = 0

    def need(what: str) -> tuple[str, int]:
        nonlocal pos
        if pos >= len(tokens):
            last_line = tokens[-1][1] if tokens else 1
            raise GameFormatError(f"unexpected end of file, expected {what}", last_line)
        tok = tokens[pos]
        pos += 1
        return tok

    def keyword(word: str) -> None:
        tok, line = need(f"'{word}'")
        if tok != word:
            raise GameFormatError(f"expected '{word}', got {tok!r}", line)

    def count(what: str) -> tuple[int, int]:
        """The next token as an int, and its line."""
        tok, line = need(what)
        try:
            return int(tok), line
        except ValueError:
            raise GameFormatError(f"bad {what} {tok!r}", line) from None

    keyword("players")
    m, line = count("player count")
    if m < 1:
        raise GameFormatError("player count must be >= 1", line)
    keyword("strategies")
    counts = []
    for k in range(1, m + 1):
        c, line = count("strategy count")
        try:
            counts.append(_index(c, f"player {k} strategy count", start=2))
        except ValueError as e:
            raise GameFormatError(str(e), line) from None
    total = math.prod(counts)

    if mode is None:
        mode = RATIONAL if any("/" in t for t, _ in tokens[pos:]) else FLOAT

    tensors = []
    for i in range(1, m + 1):
        keyword("payoff")
        tok, line = need("payoff player index")
        if tok != str(i):
            raise GameFormatError(f"expected payoff block for player {i}, got {tok!r}", line)
        entries = []
        for _ in range(total):
            tok, line = need("payoff entry")
            try:
                entries.append(_number(tok, "payoff", mode))
            except ValueError:
                raise GameFormatError(f"bad number {tok!r}", line) from None
        tensors.append(entries)
    if pos != len(tokens):
        tok, line = tokens[pos]
        raise GameFormatError(f"trailing content {tok!r}", line)
    try:
        return make_game(counts, tensors, mode=mode)
    except ValueError as e:
        raise GameFormatError(str(e)) from e


def serialize_game(game: FiniteGame) -> str:
    """Inverse of parse_game; round-trips exactly in either mode."""
    out = io.StringIO()
    out.write(f"players {game.num_players}\n")
    out.write("strategies " + " ".join(str(c) for c in game.strategy_counts) + "\n")
    for i, tensor in enumerate(game.utilities, start=1):
        out.write(f"payoff {i}\n")
        flat = tensor.reshape(-1)
        if game.mode == RATIONAL:
            row = [str(x) for x in flat]
        else:
            row = [repr(float(x)) for x in flat]
        # One line per slice of the last axis keeps files readable.
        width = game.strategy_counts[-1]
        for start in range(0, len(row), width):
            out.write(" ".join(row[start : start + width]) + "\n")
    return out.getvalue()
