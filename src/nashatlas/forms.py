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
the homogenized space (K, Lambda) is player i's integer payoff table
(FiniteGame.integer_utilities) changed basis exactly (_tilde_ints) and
rounded once for a float game; on the simplex product (kappa, lambda) it
is the same tensors read in each opponent's chart tilde_0 = 1.

payoff_slice_values gives player i's payoff slopes, one per own pure
strategy, against the others' weights. Every weight is a rational (a
float is a dyadic one), so the weights become integer numerators over
one positive denominator (_integer_ratio) for the one integer slope
kernel, _slope_nums: one loop that multiplies each row of
FiniteGame.integer_rows by the opponents' Segre monomials (the products
of their numerators, one per pure profile of the opponents), held
opponents included. Exact weights (game._exact, the test behind
MixedProfile.exact) get the slopes as Fractions, float ones get them
rounded once to float64 (_quotients).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .game import (FLOAT, RATIONAL, FiniteGame, _check_blocks, _exact, _index, _indices,
                   _integer_ratio, _numbers, _rounded, _sequence)


@dataclass(frozen=True)
class MultilinearForm:
    """Dense coefficient tensor over one axis per participating block.

    blocks: strictly ascending player indices (0-based) the form depends
        on.
    pinned: per block, the coordinate index fixed to 1, below the block's
        axis size, or None for a homogeneous block; None or an empty
        sequence pins no block. A pinned block of full size s takes input
        vectors of length s - 1.
    Both are checked when the form is built (game._indices, game._sequence,
    game._index).
    """

    blocks: tuple[int, ...]
    coeffs: np.ndarray
    pinned: tuple[int | None, ...] = ()

    def __post_init__(self):
        # a form in no blocks may arrive as a scalar (np.take or arithmetic
        # on a 0-d object array gives a bare Fraction): keep it an array
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs))
        blocks = _indices(self.blocks, "form blocks", "form block")
        if any(a >= b for a, b in zip(blocks, blocks[1:])):
            raise ValueError(f"form blocks {blocks} are not strictly ascending")
        pinned = () if self.pinned is None else _sequence(self.pinned, "pinned slots")
        pinned = pinned or (None,) * len(blocks)
        if len(blocks) != self.coeffs.ndim or len(pinned) != self.coeffs.ndim:
            raise ValueError("blocks/pinned must match tensor rank")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "pinned", tuple(
            p if p is None else _index(p, f"block {b} pinned slot", s)
            for p, b, s in zip(pinned, blocks, self.coeffs.shape)))

    @property
    def is_rational(self) -> bool:
        return self.coeffs.dtype == object

    def input_length(self, t: int) -> int:
        """Expected vector length for the t-th participating block; t is a
        position among the blocks (game._index)."""
        t = _index(t, "block position", len(self.blocks))
        full = self.coeffs.shape[t]
        return full if self.pinned[t] is None else full - 1

    def lift_input(self, t: int, vec) -> np.ndarray:
        """Insert the pinned 1 into the input of the t-th participating
        block (t as in input_length), a vector or a batch of them
        (_coerce_vector), along its last axis."""
        t = _index(t, "block position", len(self.blocks))
        vec = _coerce_vector(vec, self.is_rational)
        p = self.pinned[t]
        if p is None:
            return vec
        one = Fraction(1) if self.is_rational else 1.0
        return np.insert(vec, p, one, axis=-1)

    def _inputs(self, points, keep: int | None = None) -> list:
        """One lifted block (lift_input, the one coercion) per participating
        block, None at position keep. A block is a vector or a (B, s) batch,
        one B for every batch; a wrong count, a block of more axes, another
        batch size or a wrong lifted length is a ValueError naming it."""
        if len(points) != len(self.blocks):
            raise ValueError(
                f"form takes {len(self.blocks)} block vectors, got {len(points)}"
            )
        out, batch = [], None
        for k, vec in enumerate(points):
            if k == keep:
                out.append(None)
                continue
            vec = self.lift_input(k, vec)
            if vec.ndim > 2:
                raise ValueError(f"block {self.blocks[k]}: expected a vector or a (B, "
                                 f"{self.input_length(k)}) batch, got shape {np.shape(points[k])}")
            if vec.ndim == 2:
                batch = len(vec) if batch is None else batch
                if len(vec) != batch:
                    raise ValueError(f"block {self.blocks[k]}: batch size {len(vec)}, "
                                     f"expected {batch}")
            if vec.shape[-1] != self.coeffs.shape[k]:
                raise ValueError(
                    f"block {self.blocks[k]}: expected length {self.input_length(k)}"
                )
            out.append(vec)
        return out

    def eval(self, points):
        """Evaluate at one coordinate vector per participating block, or
        at a batch of B points: then a block is a (B, s) array, or a vector
        shared by every point (contract), and the result has shape (B,).
        Exact on a rational form."""
        t = np.asarray(contract(self.coeffs, self._inputs(points)))
        return t if t.ndim else t.item()

    def grad(self, points, block: int) -> np.ndarray:
        """Gradient with respect to one block's (free) coordinates, at one
        coordinate vector per participating block (the block's own is not
        read), or at a batch of points as in eval, batch axis first.

        Exact contraction over all other blocks; for a pinned block the
        pinned slot is dropped from the result.
        """
        if block not in self.blocks:
            raise ValueError(f"form does not depend on block {block}")
        pos = self.blocks.index(block)
        t = contract(self.coeffs, self._inputs(points, keep=pos))
        if self.pinned[pos] is not None:
            t = np.delete(t, self.pinned[pos], axis=-1)
        return t


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
    """vec as the form's numbers (game._numbers), its shape kept (a scalar
    becomes a vector of one); a finite float64 array is taken as it is
    (one holding inf or nan goes through the rule, which refuses it), and
    a rational form keeps only exact arrays (game._exact)."""
    if isinstance(vec, np.ndarray) and (_exact([vec.flat]) if rational else
                                        vec.dtype == float and np.isfinite(vec).all()):
        return vec
    return _numbers(vec, RATIONAL if rational else FLOAT, "form input").reshape(np.shape(vec) or -1)


def payoff_form(game: FiniteGame, i: int) -> MultilinearForm:
    """Player i's payoff as a homogeneous form in all blocks (the
    multilinear extension of the pure payoff tensor). Player i is a
    0-based index below the player count (game._index; 2.0 is player
    index 2), as in every function of a player here."""
    i = _index(i, "player index", game.num_players)
    return MultilinearForm(tuple(range(game.num_players)), game.utilities[i].copy())


# Basis change between the natural weights gamma and the homogenized
# coordinates tilde(gamma): tilde_0 = sum_j gamma_j, tilde_j = gamma_j.
# gamma = M tilde with M row 0 = (1, -1, ..., -1), row j = e_j.


def _basis_matrix(size: int) -> np.ndarray:
    """M, gamma from tilde, in ints."""
    m = np.eye(size, dtype=int)
    m[0, 1:] = -1
    return m


def _contract_axis(tensor: np.ndarray, matrix: np.ndarray, axis: int) -> np.ndarray:
    out = np.tensordot(tensor, matrix, axes=([axis], [0]))
    return np.moveaxis(out, -1, axis)


def _tilde_ints(t: np.ndarray) -> np.ndarray:
    """An object tensor of ints with M applied on every axis, exactly."""
    for axis in range(t.ndim):
        t = _contract_axis(t, _basis_matrix(t.shape[axis]), axis)
    return t


def _quotients(nums, den: int, exact: bool) -> np.ndarray:
    """Ints over den > 0, the shape kept: Fractions if exact, else each
    rounded once (game._rounded)."""
    nums = np.asarray(nums, dtype=object)
    number = Fraction if exact else _rounded
    return np.array([number(n, den) for n in nums.reshape(-1).tolist()],
                    dtype=object if exact else float).reshape(nums.shape)


def to_tilde_coordinates(form: MultilinearForm) -> MultilinearForm:
    """Coefficients of the same polynomial in homogenized coordinates, contracted
    exactly in ints (_integer_ratio, _tilde_ints), a float form's rounded once."""
    if any(p is not None for p in form.pinned):
        raise ValueError("basis change applies to homogeneous forms only")
    nums, den = _integer_ratio(form.coeffs.reshape(-1).tolist(), "coefficient")
    ints = _tilde_ints(np.array(nums, dtype=object).reshape(form.coeffs.shape))
    return MultilinearForm(form.blocks, _quotients(ints, den, form.is_rational), form.pinned)


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
    """Own-index slices of player i's integer payoffs (integer_utilities) in
    tilde coordinates over their scale (_quotients): slice 0 is K, slice j >=
    1 is Lambda_j, and Lambda_0 is slice 0 times 0."""
    i = _index(i, "player index", game.num_players)
    ints, scale = game.integer_utilities[i]
    tilde = np.moveaxis(_tilde_ints(ints), i, 0)
    others = tuple(b for b in range(game.num_players) if b != i)
    K, *Lambdas = (MultilinearForm(others, _quotients(t, scale, game.mode == RATIONAL))
                   for t in (tilde[0], 0 * tilde[0], *tilde[1:]))
    return HomogeneousDecomposition(i, K, tuple(Lambdas))


def payoff_slice_values(game: FiniteGame, i: int, weights) -> np.ndarray:
    """Vector over player i's own strategies: entry j is the payoff of
    playing pure strategy j against the others' mixed weights.

    Differences of entries are exactly the lambda differences that the
    best-reply conditions compare, for profiles on the sum-to-one set.
    Inputs are checked (game._index, game._check_blocks). The slopes are computed
    exactly in integers (_integer_ratio, _slope_nums), for float
    weights too: Fractions for exact weights (game._exact), else each
    exact value rounded once to float.
    """
    i = _index(i, "player index", game.num_players)
    _check_blocks(weights, game.strategy_counts, "weight")
    nums, den = _slope_nums(game, i, [_integer_ratio(w, "weight") for w in weights])
    return _quotients(nums, den, _exact(weights))


def _slope_nums(game: FiniteGame, i: int, nums) -> tuple[list[int], int]:
    """Player i's payoff slopes against integer weights, the one integer
    slope kernel: ``nums`` holds one (numerators, den) per player, den >
    0, and player i's own entry is not read. The slopes are integer
    numerators over ``den``, the scale of game.integer_utilities times
    the opponents' dens.

    A slope is multilinear in the opponents' weights, so linear in their
    Segre monomials: each slope is one row of game.integer_rows times the
    products of the opponents' numerators, one per pure profile of the
    opponents in C order. A held opponent (one nonzero weight) is no
    special case: its zero weights give zero products.
    """
    den = game.integer_utilities[i][1]
    monomials = [1]
    for k, (vec, d) in enumerate(nums):
        if k != i:
            den *= d
            monomials = [a * b for a in monomials for b in vec]
    return [sum(map(operator.mul, row, monomials)) for row in game.integer_rows[i]], den
