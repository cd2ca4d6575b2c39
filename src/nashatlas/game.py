"""Finite games in normal form and mixed strategy profiles.

A game holds one dense payoff tensor per player, indexed by the pure
strategy combination (j_1, ..., j_m) with j_k in {0, ..., n_k}. Two
numeric modes exist: "float" (float64 tensors) and "rational"
(object tensors of ``fractions.Fraction``), fixed at construction.
"""

from __future__ import annotations

import io
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
            ratios = [x.as_integer_ratio() for x in u.reshape(-1).tolist()]
            scale = math.lcm(*(d for _, d in ratios))
            ints = np.empty(u.shape, dtype=object)
            ints.reshape(-1)[:] = [n * (scale // d) for n, d in ratios]
            out.append((ints, scale))
        return tuple(out)

    @cached_property
    def payoff_exponents(self) -> tuple[int, ...]:
        """Per player, the e of its payoff unit 2**e: the largest range of
        its payoffs along its own axis, ptp(u_i, axis=i).max(), lies in
        [2**e, 2**(e + 1)), or e = 0 if that range is 0. Offsets leave e
        alone; a factor 2**k adds k."""
        out = []
        for i, u in enumerate(self.utilities):
            spread = np.ptp(u, axis=i, keepdims=True).max()
            out.append(math.frexp(spread)[1] - 1 if spread else 0)
        return tuple(out)

    @cached_property
    def _pair_tables(self) -> dict:
        return {}

    def integer_pair_tables(self, pair=(0, 1), at=()) -> tuple[list[list[int]], ...]:
        """The integer_utilities ints of the players pair = (i, j), i < j,
        sliced with every other player held at its strategy in `at` (in
        player order): per player of the pair, nested lists of Python ints
        indexed [own strategy][partner strategy] (j's table transposed).
        Built once per (pair, at), for the exact support solve
        (equilibrium._integer_solution) and forms._slope_nums."""
        tables = self._pair_tables.get((pair, at))
        if tables is None:
            fixed = iter(at)
            index = tuple(slice(None) if k in pair else next(fixed)
                          for k in range(self.num_players))
            (ui, _), (uj, _) = (self.integer_utilities[k] for k in pair)
            tables = self._pair_tables[pair, at] = (ui[index].tolist(), uj[index].T.tolist())
        return tables

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
    weight; integral entries (_integral) become ints."""

    supports: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not all(type(j) is int for supp in self.supports for j in supp):
            object.__setattr__(self, "supports", tuple(
                tuple(_integral(j, "support entry") for j in supp) for supp in self.supports))
        for supp in self.supports:
            if not supp:
                raise ValueError("supports must be nonempty")
            if tuple(sorted(set(supp))) != supp:
                raise ValueError("supports must be sorted and duplicate-free")


def _integral(x, what: str) -> int:
    """x as an int when it is integral (2, 2.0, a NumPy integer), or a
    ValueError naming it: an index or a count is never truncated."""
    i = int(x)
    if i != x:
        raise ValueError(f"{what} {x} is not an integer")
    return i


def _check_seed(seed) -> int:
    """A library seed as an int when it is integral (_integral) and >= 0,
    the rule of the CLI's --seed, or a ValueError naming it (None too)."""
    if seed is None:
        raise ValueError("seed None is not an integer")
    seed = _integral(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed {seed} must be >= 0")
    return seed


def make_game(
    strategy_counts,
    utilities,
    mode: str = FLOAT,
) -> FiniteGame:
    """Validate shapes and entries and build a FiniteGame.

    utilities may be nested sequences or arrays of any shape with the
    right number of entries, read row-major; entries become the mode's
    numbers (_numbers).
    """
    counts = tuple(_integral(c, "strategy count") for c in strategy_counts)
    if len(counts) < 1:
        raise ValueError("need at least one player")
    if any(c < 2 for c in counts):
        raise ValueError("each player needs at least 2 pure strategies (n_i >= 1)")
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
        # inf and nan have no Fraction: rational mode tests its floats first
        finite = mode == FLOAT or all(math.isfinite(x) for x in flat if isinstance(x, float))
        arr = _numbers(flat, mode).reshape(counts) if finite else None
        if not finite or mode == FLOAT and not np.isfinite(arr).all():
            raise ValueError(f"utility tensor {i} contains non-finite entries")
        tensors.append(arr)
    return FiniteGame(counts, tuple(tensors), mode=mode)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"cannot convert {x!r} to Fraction")
        return Fraction(x)  # exact binary value
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot convert {x!r} to Fraction")


def _numbers(values, mode: str) -> np.ndarray:
    """values, flattened row-major, as the mode's numbers: a 1-D object
    array of Fractions (_as_fraction) in RATIONAL mode, float64 otherwise."""
    if mode != RATIONAL:
        return np.asarray(values, dtype=float).reshape(-1)
    out = np.array(values, dtype=object).reshape(-1)
    out[:] = [_as_fraction(x) for x in out]
    return out


def profile_from_weights(weights, mode: str = FLOAT) -> MixedProfile:
    """Build a MixedProfile from per-player weight sequences."""
    return MixedProfile(tuple(_numbers(w, mode) for w in weights))


def _exact(weights) -> bool:
    """Weights that are all ints or Fractions (a NumPy integer is not),
    whatever the game's mode: the one test of whether numbers are exact,
    so compared exactly, while float numbers get a tolerance."""
    return all(isinstance(x, (int, Fraction)) for w in weights for x in w)


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
    """
    counts = tuple(_integral(c, "strategy count") for c in strategy_counts)
    rng = np.random.default_rng(_check_seed(seed))
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
    line; one reader checks each keyword and one each count."""
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
    counts = [count("strategy count")[0] for _ in range(m)]
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
                if mode == RATIONAL:
                    entries.append(Fraction(tok))
                else:
                    entries.append(float(Fraction(tok)) if "/" in tok else float(tok))
            except (ValueError, ZeroDivisionError):
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
