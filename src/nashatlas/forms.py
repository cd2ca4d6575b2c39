"""Multilinear and multi-affine-linear payoff algebra.

A form is a dense coefficient tensor with one axis per participating
player block. Evaluation contracts each axis with that block's
coordinate vector. A block may be "pinned": one of its coordinates is
fixed to 1 and the caller supplies only the remaining entries. Pinning
index 0 turns a homogeneous tensor into a multi-affine-linear
polynomial (index 0 acts as the constant slot); pinning index l is
exactly composition with the chart embedding that sets the l-th
homogeneous coordinate to 1.

The payoff of player i is a homogeneous form in all m blocks. Its
decomposition into an own-weight-free part plus own-weight multiples on
the homogenized space (K, Lambda) comes out of one basis change per
block; on the simplex product (kappa, lambda) it is the same tensors
read in each opponent's chart tilde_0 = 1.

payoff_slice_values gives player i's payoff slopes, one per own pure
strategy, against the others' weights. Every weight is a rational (a
float is a dyadic one), so the weights become integer numerators over
one positive denominator (_integer_weights) for the one integer slope
kernel, _slope_nums: it indexes pure opponents, takes row products over
FiniteGame.integer_pair_tables when one opponent mixes, and contracts
when more do. Exact weights (game._exact, the test behind
MixedProfile.exact) get the slopes as Fractions, float ones get them
rounded once to float64.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .game import FLOAT, RATIONAL, FiniteGame, _exact, _integral, _numbers


@dataclass(frozen=True)
class MultilinearForm:
    """Dense coefficient tensor over one axis per participating block.

    blocks: ascending player indices (0-based) the form depends on.
    pinned: per block, the coordinate index fixed to 1, or None for a
        homogeneous block. A pinned block of full size s takes input
        vectors of length s - 1.
    """

    blocks: tuple[int, ...]
    coeffs: np.ndarray
    pinned: tuple[int | None, ...] = ()

    def __post_init__(self):
        # a form in no blocks may arrive as a scalar (np.take or arithmetic
        # on a 0-d object array gives a bare Fraction): keep it an array
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs))
        if not self.pinned:
            object.__setattr__(self, "pinned", (None,) * len(self.blocks))
        if len(self.blocks) != self.coeffs.ndim or len(self.pinned) != self.coeffs.ndim:
            raise ValueError("blocks/pinned must match tensor rank")

    @property
    def is_rational(self) -> bool:
        return self.coeffs.dtype == object

    def input_length(self, t: int) -> int:
        """Expected vector length for the t-th participating block."""
        full = self.coeffs.shape[t]
        return full if self.pinned[t] is None else full - 1

    def lift_input(self, t: int, vec) -> np.ndarray:
        """Insert the pinned 1 into a block's input vector."""
        vec = _coerce_vector(vec, self.is_rational)
        p = self.pinned[t]
        if p is None:
            return vec
        one = Fraction(1) if self.is_rational else 1.0
        return np.insert(vec, p, one)

    def max_abs_coeff(self) -> float:
        return float(np.abs(self.coeffs).max(initial=0.0))

    def _inputs(self, points, keep: int | None = None, lift=None) -> list:
        """One block vector per participating block, lifted by lift(t,
        vec) (default lift_input), None at position keep; a wrong count
        or a wrong lifted length is a ValueError."""
        if len(points) != len(self.blocks):
            raise ValueError(
                f"form takes {len(self.blocks)} block vectors, got {len(points)}"
            )
        out = []
        for k, vec in enumerate(points):
            if k == keep:
                out.append(None)
                continue
            vec = (lift or self.lift_input)(k, vec)
            if vec.shape[-1] != self.coeffs.shape[k]:
                raise ValueError(
                    f"block {self.blocks[k]}: expected length {self.input_length(k)}"
                )
            out.append(vec)
        return out

    def eval(self, points) -> float | Fraction:
        """Evaluate at one coordinate vector per participating block."""
        t = contract(self.coeffs, self._inputs(points))
        return t.item() if isinstance(t, (np.ndarray, np.generic)) else t

    def grad(self, points, block: int) -> np.ndarray:
        """Gradient with respect to one block's (free) coordinates, at one
        coordinate vector per participating block (the block's own is not
        read).

        Exact contraction over all other blocks; for a pinned block the
        pinned slot is dropped from the result.
        """
        if block not in self.blocks:
            raise ValueError(f"form does not depend on block {block}")
        pos = self.blocks.index(block)
        t = contract(self.coeffs, self._inputs(points, keep=pos))
        if self.pinned[pos] is not None:
            t = np.delete(t, self.pinned[pos])
        return t

    def eval_batch(self, mats) -> np.ndarray:
        """Vectorized float evaluation: mats[t] has shape (B, input_length(t)),
        one batch size B for every block. A block that is not 2-D, or whose
        batch size is not the first block's, is a ValueError naming it."""
        batch = None

        def lift(k, mat):
            nonlocal batch
            mat = np.asarray(mat, dtype=float)
            if mat.ndim != 2:
                raise ValueError(f"block {self.blocks[k]}: expected a (B, "
                                 f"{self.input_length(k)}) batch, got shape {mat.shape}")
            if batch is None:
                batch = len(mat)
            elif len(mat) != batch:
                raise ValueError(f"block {self.blocks[k]}: batch size {len(mat)}, "
                                 f"expected {batch}")
            p = self.pinned[k]
            return mat if p is None else np.insert(mat, p, 1.0, axis=1)

        return contract(np.asarray(self.coeffs, dtype=float), self._inputs(mats, lift=lift))


def contract(tensor: np.ndarray, vectors) -> np.ndarray:
    """Contract axis k of tensor with vectors[k]; a None entry keeps axis k.

    Kept axes stay in their original order. A vector of shape (B, s)
    carries a batch axis shared by all such vectors, which comes first in
    the result. One einsum call in integer-sublist form, so the number of
    axes is not bound to an alphabet; object (Fraction) arrays contract
    exactly.
    """
    n = tensor.ndim
    operands = [tensor, list(range(n))]
    kept, batched = [], False
    for k, vec in enumerate(vectors):
        if vec is None:
            kept.append(k)
            continue
        batched = batched or vec.ndim == 2
        operands += [vec, [n, k] if vec.ndim == 2 else [k]]
    return np.einsum(*operands, ([n] if batched else []) + kept)


def _coerce_vector(vec, rational: bool) -> np.ndarray:
    if isinstance(vec, np.ndarray) and (vec.dtype == object) == rational:
        return vec
    return _numbers(vec, RATIONAL if rational else FLOAT)


def zero_form(game: FiniteGame, blocks: tuple[int, ...]) -> MultilinearForm:
    shape = tuple(game.strategy_counts[b] for b in blocks)
    return MultilinearForm(blocks, _numbers(np.zeros(shape, dtype=int), game.mode).reshape(shape))


def payoff_form(game: FiniteGame, i: int) -> MultilinearForm:
    """Player i's payoff as a homogeneous form in all blocks (the
    multilinear extension of the pure payoff tensor). Player i is 0-based
    and integral (2.0 is player 2); a ValueError for one outside the game
    names it 1-based (_player)."""
    return MultilinearForm(tuple(range(game.num_players)), game.utilities[_player(game, i)].copy())


def _player(game: FiniteGame, i) -> int:
    i = _integral(i, "player")
    if not 0 <= i < game.num_players:
        raise ValueError(f"no player {i + 1}")
    return i


def _check_weights(game: FiniteGame, weights) -> None:
    """One weight vector per player, each of that player's strategy
    count and with finite entries, or a ValueError naming the 1-based
    player."""
    if len(weights) > game.num_players:
        raise ValueError(f"no player {game.num_players + 1}")
    for i, c in enumerate(game.strategy_counts):
        got = len(weights[i]) if i < len(weights) else 0
        if got != c:
            raise ValueError(f"player {i + 1} takes {c} weights, got {got}")
        for x in weights[i]:
            if isinstance(x, (float, np.floating)) and not math.isfinite(x):
                raise ValueError(f"player {i + 1}: weight {float(x)} is not finite")


# Basis change between the natural weights gamma and the homogenized
# coordinates tilde(gamma): tilde_0 = sum_j gamma_j, tilde_j = gamma_j.
# gamma = M tilde with M row 0 = (1, -1, ..., -1), row j = e_j; the
# inverse M^-1 has row 0 = (1, 1, ..., 1), row j = e_j.


def _basis_matrix(size: int, rational: bool, inverse: bool = False) -> np.ndarray:
    """M (gamma from tilde), or M^-1 (tilde from gamma) when inverse."""
    m = np.eye(size, dtype=int)
    m[0, 1:] = 1 if inverse else -1
    return _numbers(m, RATIONAL if rational else FLOAT).reshape(m.shape)


def _contract_axis(tensor: np.ndarray, matrix: np.ndarray, axis: int) -> np.ndarray:
    out = np.tensordot(tensor, matrix, axes=([axis], [0]))
    return np.moveaxis(out, -1, axis)


def _change_basis(form: MultilinearForm, inverse: bool) -> MultilinearForm:
    if any(p is not None for p in form.pinned):
        raise ValueError("basis change applies to homogeneous forms only")
    t = form.coeffs
    for axis in range(t.ndim):
        t = _contract_axis(t, _basis_matrix(t.shape[axis], form.is_rational, inverse), axis)
    return MultilinearForm(form.blocks, t, form.pinned)


def to_tilde_coordinates(form: MultilinearForm) -> MultilinearForm:
    """Coefficients of the same polynomial in homogenized coordinates."""
    return _change_basis(form, inverse=False)


def from_tilde_coordinates(form: MultilinearForm) -> MultilinearForm:
    """Inverse of to_tilde_coordinates."""
    return _change_basis(form, inverse=True)


@dataclass(frozen=True)
class LambdaDecomposition:
    """Payoff of player i on the simplex product, split as
    kappa(others) + sum_j own_weight_j * lambda_j(others), with
    lambda_0 identically zero. All parts are multi-affine-linear in
    the opponents' free weights (index 0 of each block is the constant
    slot, pinned to 1)."""

    player: int
    kappa: MultilinearForm
    lambdas: tuple[MultilinearForm, ...]


@dataclass(frozen=True)
class HomogeneousDecomposition:
    """Same split in homogenized coordinates: payoff =
    tilde_0 * K(others) + sum_j tilde_j * Lambda_j(others), with
    Lambda_0 identically zero and every part homogeneous."""

    player: int
    K: MultilinearForm
    Lambdas: tuple[MultilinearForm, ...]


def _other_blocks(game: FiniteGame, i: int) -> tuple[int, ...]:
    return tuple(k for k in range(game.num_players) if k != i)


def lambda_decomposition(game: FiniteGame, i: int) -> LambdaDecomposition:
    """Split player i's payoff on the simplex product: the homogeneous
    split with slot 0 (the weight sum tilde_0) of every part pinned to 1."""
    hom = homogeneous_decomposition(game, i)
    pinned = (0,) * (game.num_players - 1)
    return LambdaDecomposition(
        hom.player,
        replace(hom.K, pinned=pinned),
        tuple(replace(Lam, pinned=pinned) for Lam in hom.Lambdas),
    )


def homogeneous_decomposition(game: FiniteGame, i: int) -> HomogeneousDecomposition:
    """Own-index slices of the homogenized payoff tensor: slice 0 is K,
    slice j >= 1 is Lambda_j."""
    tilde = to_tilde_coordinates(payoff_form(game, i))
    i = _integral(i, "player")
    others = _other_blocks(game, i)
    slices = [np.take(tilde.coeffs, j, axis=i) for j in range(game.strategy_counts[i])]
    K = MultilinearForm(others, slices[0])
    Lambdas = [zero_form(game, others)]
    for j in range(1, game.strategy_counts[i]):
        Lambdas.append(MultilinearForm(others, slices[j]))
    return HomogeneousDecomposition(i, K, tuple(Lambdas))


def payoff_slice_values(game: FiniteGame, i: int, weights, relative: bool = False) -> np.ndarray:
    """Vector over player i's own strategies: entry j is the payoff of
    playing pure strategy j against the others' mixed weights, or with
    ``relative`` that payoff minus strategy 0's.

    Differences of entries are exactly the lambda differences that the
    best-reply conditions compare, for profiles on the sum-to-one set.
    Inputs are checked (_player, _check_weights). The slopes are computed
    exactly in integers (_integer_weights, _slope_nums), for float
    weights too: Fractions for exact weights (game._exact), else each
    exact value rounded once to float.
    """
    i = _player(game, i)
    _check_weights(game, weights)
    nums, den = _slope_nums(game, i, [_integer_weights(w) for w in weights])
    base = nums[0] if relative else 0
    if _exact(weights):
        return np.array([Fraction(n - base, den) for n in nums], dtype=object)
    return np.array([(n - base) / den for n in nums])


def _integer_weights(w) -> tuple[list[int], int]:
    """Weights as integer numerators over the lcm of their denominators,
    exactly: a float is a dyadic rational (float.as_integer_ratio), and a
    NumPy integer, which has no as_integer_ratio, goes through int(), so
    it never wraps."""
    if _exact([w]):
        lcm = math.lcm(*(x.denominator for x in w))
        return [x.numerator * (lcm // x.denominator) for x in w], lcm
    ratios = [(int(x), 1) if isinstance(x, np.integer) else x.as_integer_ratio() for x in w]
    lcm = math.lcm(*(d for _, d in ratios))
    return [n * (lcm // d) for n, d in ratios], lcm


def _slope_nums(game: FiniteGame, i: int, nums) -> tuple[list[int], int]:
    """Player i's payoff slopes against integer weights, the one integer
    slope kernel: ``nums`` holds one (numerators, den) per player, den >
    0, and player i's own entry is not read. The slopes are integer
    numerators over ``den``, the scale of game.integer_utilities times
    the opponents' dens.

    An opponent whose numerators have one nonzero entry v, at strategy s,
    is held at s, and v multiplies the result, so the scale is the
    contraction's. One mixed opponent takes row products over
    game.integer_pair_tables; more contract with the integer payoff
    tensor (contract, object dtype).
    """
    ints, den = game.integer_utilities[i]
    held, mixed, factor = {}, [], 1
    for k, (vec, d) in enumerate(nums):
        if k == i:
            continue
        den *= d
        if vec.count(0) == len(vec) - 1:
            v = next(filter(None, vec))
            held[k] = vec.index(v)
            factor *= v
        else:
            mixed.append(k)
    if len(mixed) == 1:
        j, w = mixed[0], nums[mixed[0]][0]
        pair = (i, j) if i < j else (j, i)
        table = game.integer_pair_tables(pair, tuple(held.values()))[pair.index(i)]
        slopes = [sum(map(operator.mul, row, w)) for row in table]
    else:
        t = ints[tuple(held.get(k, slice(None)) for k in range(len(nums)))]
        if mixed:
            t = contract(t, [None if k == i else np.array(nums[k][0], dtype=object)
                             for k in sorted([i, *mixed])])
        slopes = t.tolist()
    return (slopes if factor == 1 else [factor * x for x in slopes]), den
