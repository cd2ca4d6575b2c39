"""Multilinear payoff forms and their decompositions.

The frozen coefficient values below were derived by hand for matching
pennies: with y the opponent's weight on strategy 1, player 1's payoff
of pure 0 is kappa^1 = 1 - 2y and the slope of switching to pure 1 is
lambda^1_1 = -2 + 4y; homogenizing gives -2*g0 + 4*g1 in the tilde
basis.
"""

import itertools
import json
import math
import re
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashatlas import (
    RATIONAL,
    FiniteGame,
    MixedProfile,
    MultilinearForm,
    PayoffDiff,
    best_reply_check,
    defining_map,
    homogeneous_decomposition,
    lambda_decomposition,
    make_game,
    payoff_form,
    payoff_slice_values,
    profile_from_weights,
    random_game,
    serialize_game,
    to_tilde_coordinates,
)
from nashatlas.cli import main

from conftest import fd_gradient, loop_payoff


def _tilde_matrix(c):
    """Row 0 sums the weights; the rest copy coordinates 1..n."""
    N = np.zeros((c, c))
    N[0, :] = 1
    for j in range(1, c):
        N[j, j] = 1
    return N


def _random_profiles(game, rng, count):
    return [
        [rng.dirichlet(np.ones(c)) for c in game.strategy_counts]
        for _ in range(count)
    ]


def test_mp_frozen_values(mp_float):
    dec = lambda_decomposition(mp_float, 0)
    np.testing.assert_allclose(dec.kappa.coeffs, [1.0, -2.0])
    np.testing.assert_allclose(dec.lambdas[0].coeffs, [0.0, 0.0])
    np.testing.assert_allclose(dec.lambdas[1].coeffs, [-2.0, 4.0])
    dec2 = lambda_decomposition(mp_float, 1)
    np.testing.assert_allclose(dec2.kappa.coeffs, [-1.0, 2.0])
    np.testing.assert_allclose(dec2.lambdas[1].coeffs, [2.0, -4.0])
    hom = homogeneous_decomposition(mp_float, 0)
    np.testing.assert_allclose(hom.K.coeffs, [1.0, -2.0])
    np.testing.assert_allclose(hom.Lambdas[1].coeffs, [-2.0, 4.0])


@pytest.mark.parametrize("exact, zero", [(True, Fraction(0)), (False, 0.0)])
def test_lambda_0_is_zero_in_the_games_numbers(tmp_path, capsys, exact, zero):
    # Fraction(0) in rational mode, 0.0 in float mode, in both
    # decompositions and in `nashatlas lambda --json` ("0" and 0.0); the
    # defining maps take the game's numbers too, and a rational game built
    # directly from float tensors is read by its mode, not its dtype
    game = make_game((2, 2), [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
                     mode=RATIONAL if exact else "float")
    direct = FiniteGame((2, 2), tuple(u.astype(float) for u in game.utilities), game.mode)
    for g in (game, direct):
        for i in range(2):
            for lam0 in (lambda_decomposition(g, i).lambdas[0],
                         homogeneous_decomposition(g, i).Lambdas[0]):
                assert [(type(x), x) for x in lam0.coeffs.tolist()] == [(type(zero), zero)] * 2
            diff = defining_map(g, PayoffDiff(i, (0, 1)), (0, 0)).coeffs
            assert {type(x) for x in diff.tolist()} == {type(zero)}
    path = tmp_path / "mp.game"
    path.write_text(serialize_game(game))
    assert main(["lambda", str(path), "--player", "1", "--json"] + ["--exact"] * exact) == 0
    lambda_0 = json.loads(capsys.readouterr().out)["results"]["lambdas"][0]
    want = "0" if exact else 0.0
    assert [(type(x), x) for x in lambda_0.values()] == [(type(want), want)] * 2


def test_mp_payoff_value(mp_float):
    form = payoff_form(mp_float, 0)
    w = [[0.3, 0.7], [0.6, 0.4]]
    assert form.eval(w) == pytest.approx(-0.08)


def pure_slices(game, i):
    """payoff_slice_values of player i at every player's first strategy."""
    return payoff_slice_values(game, i, [[1] + [0] * (c - 1) for c in game.strategy_counts])


@pytest.mark.parametrize("i, message", [(-1, "player index -1 must be >= 0"),
                                        (2, "player index 2 out of range")])
def test_payoff_form_names_the_player_index(mp_float, i, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        payoff_form(mp_float, i)


@pytest.mark.parametrize("i, message", [(-1, "player index -1 must be >= 0"),
                                        (2, "player index 2 out of range")])
def test_payoff_slice_values_names_the_player_index(mp_float, i, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        pure_slices(mp_float, i)


def test_payoff_form_takes_an_integral_float_player(mp_float):
    np.testing.assert_array_equal(payoff_form(mp_float, 1.0).coeffs,
                                  payoff_form(mp_float, 1).coeffs)
    dec, want = lambda_decomposition(mp_float, 1.0), lambda_decomposition(mp_float, 1)
    assert type(dec.player) is int and dec.player == 1
    np.testing.assert_array_equal(dec.kappa.coeffs, want.kappa.coeffs)


@pytest.mark.parametrize("call", [payoff_form, lambda_decomposition, pure_slices])
def test_a_fractional_player_is_a_value_error(mp_float, call):
    with pytest.raises(ValueError, match="^player index 0.5 is not an integer$"):
        call(mp_float, 0.5)


@pytest.mark.parametrize("blocks, pinned, message", [
    ((0.5,), (), "form block 0.5 is not an integer"),
    (("a",), (), "form block a is not an integer"),
    ((1, 0), (), "form blocks (1, 0) are not strictly ascending"),
    ((0, 0), (), "form blocks (0, 0) are not strictly ascending"),
    ((0,), (-1,), "block 0 pinned slot -1 must be >= 0"),
    ((0,), (5,), "block 0 pinned slot 5 out of range"),
    ((1,), (2,), "block 1 pinned slot 2 out of range"),
    ((0,), (0.5,), "block 0 pinned slot 0.5 is not an integer"),
    ((0,), 3, "pinned slots 3 is not a sequence"),
    ((0,), 0, "pinned slots 0 is not a sequence"),
    ((0,), "", "pinned slots  is not a sequence"),
])
def test_a_form_checks_its_blocks_and_pinned_slots_when_built(blocks, pinned, message):
    # blocks are strictly ascending player indices and a pinned slot is
    # None or an index below its axis size (here 2), checked when the
    # form is built, not later in eval
    coeffs = np.ones((2,) * (len(blocks)))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MultilinearForm(blocks, coeffs, pinned)


def test_a_form_takes_checked_blocks_and_pinned_slots_as_ints():
    form = MultilinearForm([np.int64(0), 2.0], np.ones((2, 3)), [None, np.int64(2)])
    assert form.blocks == (0, 2) and form.pinned == (None, 2)
    assert all(type(x) is int for x in (*form.blocks, form.pinned[1]))
    assert form.input_length(1) == 2 and form.input_length(1.0) == 2
    assert MultilinearForm((0,), np.ones(2)).pinned == (None,)
    # only None and an empty sequence pin nothing; a falsy 0 is no sequence
    assert MultilinearForm((0,), np.ones(2), None).pinned == (None,)
    assert MultilinearForm((0,), np.ones(2), []).pinned == (None,)


def _rational(game):
    return make_game(game.strategy_counts, game.utilities, mode=RATIONAL)


@pytest.mark.parametrize("call, message", [
    (lambda g: MultilinearForm((0,), np.zeros((2, 2))), "blocks/pinned must match tensor rank"),
    (lambda g: payoff_form(g, 0).eval([np.zeros(3), np.zeros(2)]), "block 0: expected length 2"),
    (lambda g: payoff_form(g, 0).eval([]), "form takes 2 block vectors, got 0"),
    # one weight vector per player, each of that player's length, in either mode
    (lambda g: payoff_slice_values(g, 0, [[1, 0], [1, 0, 0]]), "player 2 takes 2 weights, got 3"),
    (lambda g: payoff_slice_values(g, 0, [[0.5, 0.5], [1.0, 0.0, 0.0]]),
     "player 2 takes 2 weights, got 3"),
    (lambda g: best_reply_check(g, profile_from_weights([[1, 0], [1, 0, 0]], RATIONAL)),
     "player 2 takes 2 weights, got 3"),
    (lambda g: best_reply_check(g, profile_from_weights([[1, 0], [1, 0, 0]])),
     "player 2 takes 2 weights, got 3"),
    (lambda g: payoff_slice_values(g, 1, [[1, 0]]), "player 2 takes 2 weights, got 0"),
    (lambda g: payoff_slice_values(g, 1, [[0.5, 0.5]] * 3), "no player 3"),
    # a non-finite weight, against a float and a rational game (each row
    # keeps the id of its old message); profile_from_weights refuses the
    # non-finite weight itself, so best_reply_check gets it in a MixedProfile
    pytest.param(lambda g: payoff_slice_values(g, 0, [[0.5, 0.5], [math.nan, 1.0]]),
                 "player 2 weight nan is not a number",
                 id="<lambda>-player 2: weight nan is not finite"),
    pytest.param(lambda g: payoff_slice_values(_rational(g), 1, [[math.inf, 0.0], [0.5, 0.5]]),
                 "player 1 weight inf is not a number",
                 id="<lambda>-player 1: weight inf is not finite"),
    pytest.param(lambda g: best_reply_check(g, MixedProfile((np.array([math.nan, 1.0]),
                                                             np.array([0.5, 0.5])))),
                 "player 1 weight nan is not a number",
                 id="<lambda>-player 1: weight nan is not finite"),
    pytest.param(lambda g: best_reply_check(_rational(g), MixedProfile(
                     (np.array([0.5, 0.5]), np.array([-math.inf, 1])))),
                 "player 2 weight -inf is not a number",
                 id="<lambda>-player 2: weight -inf is not finite"),
])
def test_input_errors_name_the_bad_input(mp_float, call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(mp_float)


@pytest.mark.parametrize("method", ["eval", "grad", "eval_batch"])
@pytest.mark.parametrize("count", [1, 3])
def test_every_method_checks_the_block_count(method, count):
    # a missing block is not summed out, an extra one not ignored; the
    # eval_batch case gives eval and grad each block as a batch of two
    form = payoff_form(random_game((2, 3), seed=1), 0)
    vectors = [np.full(2, 0.5), np.full(3, 1 / 3), np.ones(3)][:count]
    if method == "eval_batch":
        vectors = [np.tile(v, (2, 1)) for v in vectors]
    calls = {"eval": [form.eval], "grad": [lambda v: form.grad(v, 0)]}
    calls["eval_batch"] = calls["eval"] + calls["grad"]
    for call in calls[method]:
        with pytest.raises(ValueError, match=f"^form takes 2 block vectors, got {count}$"):
            call(vectors)


def test_eval_batch_checks_each_block_length():
    form = payoff_form(random_game((2, 3), seed=1), 0)
    mats = [np.full((2, 2), 0.5), np.full((2, 2), 0.5)]
    for call in (form.eval, lambda m: form.grad(m, 0)):
        with pytest.raises(ValueError, match="^block 1: expected length 3$"):
            call(mats)


@pytest.mark.parametrize("mats, message", [
    ([np.full((2, 2), 0.5), np.full((3, 3), 0.2)], "block 1: batch size 3, expected 2"),
    ([np.full((4, 2), 0.5), np.full((1, 3), 0.2)], "block 1: batch size 1, expected 4"),
    ([np.array([0.3, 0.7]), np.full((2, 3), 0.2)], None),
    ([np.array([[0.5, 0.5], [0.1, 0.9]]), np.array([0.2, 0.3, 0.5])], None),
    ([np.full((1, 2, 2), 0.5), np.full((2, 3), 0.2)],
     "block 0: expected a vector or a (B, 2) batch, got shape (1, 2, 2)"),
], ids=["batch-sizes", "batch-size-1", "1-d-first", "1-d-second", "3-d"])
def test_eval_batch_takes_one_batch_size_of_2d_blocks(mats, message):
    # numpy would raise a bare broadcast error; a vector block (message
    # None) is shared by the batch
    form = payoff_form(random_game((2, 3), seed=1), 0)
    if message is None:
        got = form.eval(mats)
        assert got.shape == (2,)
        for k in range(2):
            point = [m if m.ndim == 1 else m[k] for m in mats]
            assert got[k] == pytest.approx(form.eval(point), rel=1e-14)
        return
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        form.eval(mats)


def test_eval_matches_loop_oracle():
    rng = np.random.default_rng(3)
    for shape in [(2, 2), (3, 3), (2, 2, 2), (2, 3, 2)]:
        game = random_game(shape, seed=17)
        for i in range(game.num_players):
            form = payoff_form(game, i)
            for w in _random_profiles(game, rng, 5):
                assert form.eval(w) == pytest.approx(
                    loop_payoff(game, i, w), rel=1e-12, abs=1e-12
                )


def test_eval_exact_rational(mp_exact):
    form = payoff_form(mp_exact, 0)
    w = [
        [Fraction(1, 3), Fraction(2, 3)],
        [Fraction(1, 7), Fraction(6, 7)],
    ]
    assert form.eval(w) == loop_payoff(mp_exact, 0, w)
    assert isinstance(form.eval(w), Fraction)


def test_affine_reconstruction():
    """V = kappa + sum_j w_j * lambda_j on sum-to-one profiles."""
    rng = np.random.default_rng(11)
    for shape in [(2, 2), (3, 3), (2, 2, 2), (2, 3, 2)]:
        game = random_game(shape, seed=23)
        for i in range(game.num_players):
            form = payoff_form(game, i)
            dec = lambda_decomposition(game, i)
            for w in _random_profiles(game, rng, 5):
                others = [w[t][1:] for t in dec.kappa.blocks]
                recon = dec.kappa.eval(others) + sum(
                    w[i][j] * dec.lambdas[j].eval(others)
                    for j in range(1, game.strategy_counts[i])
                )
                direct = form.eval(w)
                assert recon == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_homogeneous_reconstruction():
    """V = tilde_0 * K + sum_{j>=1} tilde_j * Lambda_j with tilde = N w
    per block: the own-axis change of basis already turns slice j into
    the difference against slice 0."""
    rng = np.random.default_rng(12)
    for shape in [(2, 2), (3, 3), (2, 2, 2), (2, 3, 2)]:
        game = random_game(shape, seed=29)
        mats = [_tilde_matrix(c) for c in game.strategy_counts]
        for i in range(game.num_players):
            form = payoff_form(game, i)
            hom = homogeneous_decomposition(game, i)
            for w in _random_profiles(game, rng, 5):
                tilde = [m @ np.asarray(wt) for m, wt in zip(mats, w)]
                others = [tilde[t] for t in hom.K.blocks]
                recon = tilde[i][0] * hom.K.eval(others) + sum(
                    tilde[i][j] * hom.Lambdas[j].eval(others)
                    for j in range(1, game.strategy_counts[i])
                )
                assert recon == pytest.approx(form.eval(w), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("game", [
    random_game((2, 3, 2), seed=31),
    random_game((2, 3, 2), seed=12),
    make_game((2, 3, 2), random_game((2, 3, 2), seed=12).utilities, mode=RATIONAL),
], ids=["seed31", "seed12", "rational"])
def test_two_decomposition_routes_agree(game):
    """The affine slopes are the homogeneous slopes with the sum slot
    pinned: identical coefficient tensors, different pinning."""
    for i in range(game.num_players):
        dec = lambda_decomposition(game, i)
        hom = homogeneous_decomposition(game, i)
        np.testing.assert_array_equal(dec.kappa.coeffs, hom.K.coeffs)
        assert dec.kappa.pinned == (0,) * len(dec.kappa.blocks)
        assert hom.K.pinned == (None,) * len(hom.K.blocks)
        for lam, Lam in zip(dec.lambdas, hom.Lambdas):
            np.testing.assert_array_equal(lam.coeffs, Lam.coeffs)


@pytest.mark.parametrize("decompose", [lambda_decomposition, homogeneous_decomposition])
@pytest.mark.parametrize("shape,payoffs", [
    ((3,), [[3, 1, 2]]),
    ((2, 3), [[[1, Fraction(-1, 2), 0], [2, 3, Fraction(3, 4)]],
              [[0, 1, -2], [Fraction(5, 8), 1, 1]]]),
    *(pytest.param(shape, random_game(shape, seed).utilities,
                   id=f"{'x'.join(map(str, shape))}-seed{seed}")
      for shape in [(2, 2, 2), (2, 3, 2)] for seed in range(20)),
])
def test_rational_decomposition_matches_float_twin(decompose, shape, payoffs):
    # every part and every payoff-difference defining map of a float game
    # is its rational twin's, each coefficient rounded once; float basis
    # changes rounded some three-player coefficients more than once. One
    # player: every form is in no blocks, a 0-d coefficient array
    exact = make_game(shape, payoffs, mode=RATIONAL)
    twin = make_game(shape, [np.asarray(p, dtype=object).astype(float) for p in payoffs])

    def parts(dec):  # kappa and lambdas, or K and Lambdas
        one, many = (getattr(dec, f.name) for f in fields(dec)[1:])
        return [one, *many]

    def rounded_once(a, b):
        assert a.is_rational and not b.is_rational
        assert (a.blocks, a.pinned, a.coeffs.shape) == (b.blocks, b.pinned, b.coeffs.shape)
        assert [float(x) for x in a.coeffs.flat] == b.coeffs.reshape(-1).tolist()

    chart = (0,) * len(shape)
    for i, c in enumerate(shape):
        for a, b in zip(parts(decompose(exact, i)), parts(decompose(twin, i)), strict=True):
            rounded_once(a, b)
        for pair in itertools.combinations(range(c), 2):
            h = PayoffDiff(i, pair)
            rounded_once(defining_map(exact, h, chart), defining_map(twin, h, chart))


def test_tilde_round_trip_exact():
    tables = [
        np.array([[Fraction(1, 3), Fraction(2)], [Fraction(0), Fraction(-1, 7)]],
                 dtype=object),
        np.array([[Fraction(1), Fraction(5, 2)], [Fraction(0), Fraction(2)]],
                 dtype=object),
    ]
    game = make_game((2, 2), tables, mode=RATIONAL)
    form = payoff_form(game, 0)
    # back through M^-1 (tilde from gamma), contracted on every axis
    back = to_tilde_coordinates(form).coeffs
    for axis, c in enumerate(back.shape):
        inverse = _tilde_matrix(c).astype(int).astype(object)
        back = np.moveaxis(np.tensordot(back, inverse, axes=([axis], [0])), -1, axis)
    assert np.array_equal(back, form.coeffs)


def test_tilde_eval_consistency():
    game = random_game((2, 3), seed=37)
    form = payoff_form(game, 0)
    tilde_form = to_tilde_coordinates(form)
    mats = [_tilde_matrix(c) for c in game.strategy_counts]
    rng = np.random.default_rng(5)
    for w in _random_profiles(game, rng, 10):
        tilde = [m @ np.asarray(wt) for m, wt in zip(mats, w)]
        assert tilde_form.eval(tilde) == pytest.approx(form.eval(w), rel=1e-12)


def test_tilde_rejects_pinned_forms(mp_float):
    dec = lambda_decomposition(mp_float, 0)
    with pytest.raises(ValueError):
        to_tilde_coordinates(dec.kappa)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    game = random_game((2, 3, 2), seed=41)
    forms = [payoff_form(game, i) for i in range(3)]
    dec = lambda_decomposition(game, 1)
    forms.extend([dec.kappa, *dec.lambdas[1:]])
    hom = homogeneous_decomposition(game, 2)
    forms.extend([hom.K, *hom.Lambdas[1:]])
    for form in forms:
        points = [
            rng.normal(size=form.input_length(t))
            for t in range(len(form.blocks))
        ]
        for block in form.blocks:
            analytic = form.grad(points, block)
            numeric = fd_gradient(form, points, block)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-7)


def test_grad_rejects_missing_block(mp_float):
    dec = lambda_decomposition(mp_float, 0)
    with pytest.raises(ValueError):
        dec.kappa.grad([[0.5]], 0)


def test_eval_batch_matches_eval():
    # the 11-player form has more blocks than a one-letter einsum alphabet;
    # grad on a batch is the per-point grad too, and the pinned forms drop
    # their pinned slot along the last axis
    game = random_game((2, 3, 2), seed=43)
    dec = lambda_decomposition(game, 1)
    forms = [
        payoff_form(game, 1),
        dec.kappa,
        dec.lambdas[2],
        payoff_form(random_game((2,) * 11, seed=44), 5),
    ]
    rng = np.random.default_rng(9)
    for form in forms:
        mats = [
            rng.normal(size=(20, form.input_length(t)))
            for t in range(len(form.blocks))
        ]
        batch = form.eval(mats)
        assert batch.shape == (20,)
        grads = {b: form.grad(mats, b) for b in form.blocks}
        for k in range(20):
            point = [m[k] for m in mats]
            assert batch[k] == pytest.approx(form.eval(point))
            for b, g in grads.items():
                np.testing.assert_allclose(g[k], form.grad(point, b), rtol=1e-12, atol=1e-12)
    # a rational form evaluates a batch exactly, in its own arithmetic
    form = payoff_form(make_game((2, 3, 2), game.utilities, mode=RATIONAL), 0)
    mats = [[[Fraction(int(x), 7) for x in row] for row in rng.integers(-7, 8, size=(5, c))]
            for c in (2, 3, 2)]
    batch = form.eval(mats)
    assert list(batch) == [form.eval([m[k] for m in mats]) for k in range(5)]
    assert all(type(x) is Fraction for x in batch)


def test_lift_input_and_lengths():
    game = random_game((3, 2), seed=47)
    dec = lambda_decomposition(game, 0)
    form = dec.kappa
    assert form.blocks == (1,)
    assert form.input_length(0) == 1
    lifted = form.lift_input(0, [0.25])
    np.testing.assert_array_equal(lifted, [1.0, 0.25])


def test_payoff_slice_values_match_pure_payoffs():
    game = random_game((3, 2, 2), seed=53)
    rng = np.random.default_rng(13)
    w = [rng.dirichlet(np.ones(c)) for c in game.strategy_counts]
    slices = payoff_slice_values(game, 0, w)
    for j in range(3):
        pure = [np.eye(3)[j], w[1], w[2]]
        assert slices[j] == pytest.approx(loop_payoff(game, 0, pure))


def test_payoff_slice_values_exact(mp_exact):
    w = [
        [Fraction(1, 2), Fraction(1, 2)],
        [Fraction(1, 3), Fraction(2, 3)],
    ]
    vals = payoff_slice_values(mp_exact, 0, w)
    assert vals[0] == Fraction(-1, 3)
    assert vals[1] == Fraction(1, 3)


def test_numpy_integer_weights_on_rational_game_do_not_wrap():
    """NumPy int64 weights are not exact weights: the slopes are computed
    in Python ints (int() of each weight) and rounded once to float, and
    the form turns them into Python-int Fractions, so neither wraps around
    at 2**63."""
    game = make_game((2, 2), [[[10**18, 0], [0, 0]], [[0, 0], [0, 0]]], mode=RATIONAL)
    w = [np.array([1, 0]), np.array([10, 0])]
    assert payoff_slice_values(game, 0, w)[0] == 10**19
    assert payoff_form(game, 0).eval(w) == 10**19


def test_slopes_beyond_the_float_range_read_inf():
    # float weights that sum to a little more than 1 against payoffs at
    # the float maximum: the exact slopes leave the float range, and read
    # inf, as best_reply_check rounds, instead of raising OverflowError
    top = np.finfo(float).max
    game = make_game((2, 2), [[[top, top], [-top, -top]], [[0, 0], [0, 0]]])
    w = [[0.5, 0.5], [0.5, 0.5000000000000001]]
    assert payoff_slice_values(game, 0, w).tolist() == [math.inf, -math.inf]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    alpha=st.floats(-2, 2, allow_nan=False),
    beta=st.floats(-2, 2, allow_nan=False),
)
def test_eval_linear_in_each_block(seed, alpha, beta):
    game = random_game((2, 3), seed=7)
    form = payoff_form(game, 0)
    rng = np.random.default_rng(seed)
    u = [rng.normal(size=2), rng.normal(size=3)]
    v = rng.normal(size=3)
    mixed = form.eval([u[0], alpha * u[1] + beta * v])
    split = alpha * form.eval([u[0], u[1]]) + beta * form.eval([u[0], v])
    assert mixed == pytest.approx(split, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_non_finite_form_input_is_refused_as_a_list_and_as_an_array(bad):
    # a float64 array holding inf or nan goes through the number rule, as
    # the same numbers given as a list do: one ValueError naming the value,
    # in eval and grad, for a vector and for a batch
    form = payoff_form(random_game((2, 2), seed=1), 0)
    half = np.array([0.5, 0.5])
    message = f"^form input {bad} is not a number$"
    for block in ([bad, 0.0], np.array([bad, 0.0]), np.array([[0.5, 0.5], [bad, 0.0]])):
        with pytest.raises(ValueError, match=message):
            form.eval([block, half])
        with pytest.raises(ValueError, match=message):
            form.grad([half, block], 0)


def test_to_tilde_coordinates_names_a_coefficient_with_no_integer_ratio():
    # game._integer_ratio's except branch: inf has no integer ratio
    with pytest.raises(ValueError, match="^coefficient inf is not a number$"):
        to_tilde_coordinates(MultilinearForm((0,), np.array([np.inf, 1.0])))
