"""Output verifier for the benchmark, independent of the library.

Everything here works on the raw payoff tensors with plain numpy
contractions (float mode) or ``Fraction`` arithmetic (exact mode); no
nashatlas helper is used to decide whether an output is right.

A profile passes when, for every player,

* the weights are non-negative and sum to 1,
* the weights are positive exactly on the reported support,
* the pure-strategy payoffs ("slopes") of the supported strategies are
  equal and no unsupported slope is larger,

all within the tolerances below (exactly, for ``Fraction`` input).
Each check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

#: Float weights must sum to 1 and be >= 0 within this much.
WEIGHT_TOL = 1e-9
#: A float weight above this is "on" the support, at or below it "off".
ZERO_TOL = 1e-9
#: Slope equalities and best-reply margins, relative to max(1, max |payoff|).
SLOPE_TOL = 1e-7
#: Probe roots: payoff-slice differences relative to their natural scale.
ROOT_TOL = 1e-8


def _exact(x) -> bool:
    return isinstance(x, (Fraction, int)) and not isinstance(x, bool)


def _as_array(weights, exact: bool) -> np.ndarray:
    if exact:
        out = np.empty(len(weights), dtype=object)
        out[:] = [Fraction(x) for x in weights]
        return out
    return np.asarray(weights, dtype=float)


def slopes(utility: np.ndarray, player: int, weights) -> np.ndarray:
    """Payoff of each pure strategy of `player` against the others'
    weight vectors: the payoff tensor with every other axis contracted."""
    t = np.moveaxis(utility, player, 0)
    others = [k for k in range(utility.ndim) if k != player]
    for k in reversed(others):
        t = t @ weights[k]
    return t


def exact_utilities(utilities) -> list[np.ndarray]:
    """Payoff tensors with every entry converted exactly to Fraction."""
    out = []
    for u in utilities:
        arr = np.empty(u.shape, dtype=object)
        arr.reshape(-1)[:] = [Fraction(x) for x in np.asarray(u, dtype=object).reshape(-1)]
        out.append(arr)
    return out


def check_profile(utilities, weights, support=None) -> list[str]:
    """Problems with `weights` as a Nash equilibrium of the game whose
    payoff tensors are `utilities`; `support` (one index tuple per
    player) is the support the program reported, if any."""
    exact = all(_exact(x) for w in weights for x in w)
    if exact:
        utilities = exact_utilities(utilities)
    else:
        utilities = [np.asarray(u, dtype=float) for u in utilities]
    counts = utilities[0].shape
    if len(weights) != len(counts):
        return [f"{len(weights)} weight vectors for {len(counts)} players"]
    ws = []
    problems = []
    for i, w in enumerate(weights):
        if len(w) != counts[i]:
            return [f"player {i + 1}: {len(w)} weights for {counts[i]} strategies"]
        w = _as_array(w, exact)
        ws.append(w)
        wtol = 0 if exact else WEIGHT_TOL
        if any(x < -wtol for x in w):
            problems.append(f"player {i + 1}: negative weight")
        if abs(sum(w) - 1) > wtol:
            problems.append(f"player {i + 1}: weights sum to {float(sum(w))!r}")
    if problems:
        return problems
    for i, w in enumerate(ws):
        on = tuple(j for j, x in enumerate(w) if (x != 0 if exact else x > ZERO_TOL))
        if support is not None and tuple(support[i]) != on:
            problems.append(f"player {i + 1}: support {tuple(support[i])} but weights on {on}")
        s = slopes(utilities[i], i, ws)
        scale = 0 if exact else SLOPE_TOL * max(1.0, float(np.max(np.abs(utilities[i]))))
        inside = [s[j] for j in on]
        outside = [s[j] for j in range(counts[i]) if j not in on]
        if max(inside) - min(inside) > scale:
            problems.append(f"player {i + 1}: supported slopes differ by {float(max(inside) - min(inside))!r}")
        if outside and max(outside) - min(inside) > scale:
            problems.append(f"player {i + 1}: unsupported slope better by {float(max(outside) - min(inside))!r}")
    return problems


def expected_payoffs(utilities, weights) -> list:
    """Each player's expected payoff at the profile (exact for Fractions)."""
    exact = all(_exact(x) for w in weights for x in w)
    if exact:
        utilities = exact_utilities(utilities)
    ws = [_as_array(w, exact) for w in weights]
    return [slopes(u, i, ws) @ ws[i] for i, u in enumerate(utilities)]


def _distinct(points, tol: float = 1e-6) -> bool:
    flat = [np.concatenate([np.asarray(w, dtype=float) for w in p]) for p in points]
    return all(
        np.max(np.abs(a - b)) > tol
        for k, a in enumerate(flat) for b in flat[k + 1:]
    )


def check_enumeration(utilities, result) -> list[str]:
    """Problems with an EnumerationResult: every equilibrium and the
    continuum witness pass check_profile, and points are distinct."""
    problems = []
    if result.continuum:
        if result.equilibria:
            problems.append("continuum reported with a finite list")
        if result.continuum_witness is not None:
            problems += ["witness: " + p for p in
                         check_profile(utilities, result.continuum_witness.weights)]
    for k, cert in enumerate(result.equilibria):
        problems += [f"#{k}: " + p for p in
                     check_profile(utilities, cert.point.weights, cert.support.supports)]
    if not _distinct([c.point.weights for c in result.equilibria]):
        problems.append("duplicate equilibria")
    return problems


def _jfrac(x) -> Fraction:
    if not isinstance(x, str):
        raise ValueError(f"exact report holds non-string number {x!r}")
    return Fraction(x)


def check_solve_json(utilities, report: dict, code: int) -> list[str]:
    """Problems with a `nashatlas solve --exact --json` report and its
    exit code: exact equilibria and witness, exact payoffs, and the
    exit code matching the degeneracy flags (0 clean, 2 degenerate)."""
    try:
        res = report["results"]
        warnings = report["warnings"]
        problems = []
        if res["count"] != len(res["equilibria"]):
            problems.append("count does not match the equilibrium list")
        points = []
        for k, eq in enumerate(res["equilibria"]):
            w = [[_jfrac(x) for x in block] for block in eq["point"]]
            points.append(w)
            problems += [f"#{k}: " + p for p in check_profile(utilities, w, eq["support"])]
            if [_jfrac(x) for x in eq["payoffs"]] != expected_payoffs(utilities, w):
                problems.append(f"#{k}: wrong payoffs")
        if res["continuum"]:
            if res["equilibria"]:
                problems.append("continuum reported with a finite list")
            if res["continuum_witness"] is not None:
                w = [[_jfrac(x) for x in block] for block in res["continuum_witness"]]
                problems += ["witness: " + p for p in check_profile(utilities, w)]
        if not _distinct(points):
            problems.append("duplicate equilibria")
        degenerate = bool(warnings) or res["continuum"] or any(
            eq["jacobian_verdict"] == "singular" or eq["boundary_degenerate"]
            for eq in res["equilibria"]
        )
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        return [f"malformed report: {e!r}"]
    if code != (2 if degenerate else 0):
        problems.append(f"exit code {code} with degenerate={degenerate}")
    return problems


def probe_weights(full_tilde) -> list[np.ndarray]:
    """Chart point tilde vectors (pinned 1 included) to weights:
    gamma_0 = t_0 - sum_{j>=1} t_j and gamma_j = t_j."""
    out = []
    for t in full_tilde:
        t = np.asarray(t, dtype=float)
        g = t.copy()
        g[0] = t[0] - t[1:].sum()
        out.append(g)
    return out


def check_probe_root(utilities, pairs, labels, full_tilde) -> list[str]:
    """Problems with a regular-value-probe root: every payoff-slice
    difference of the family and every coordinate constraint vanishes,
    relative to the scale of the terms that make it up.

    pairs[i] are player i's own-strategy pairs (j, k); labels[i] are its
    coordinate labels (0 for the zeroth-weight hyperplane, j >= 1 for
    weight_j = 0)."""
    gammas = probe_weights(full_tilde)
    problems = []
    for i, u in enumerate(utilities):
        u = np.asarray(u, dtype=float)
        s = slopes(u, i, gammas)
        scale = max(1.0, float(np.max(np.abs(u))))
        for k, g in enumerate(gammas):
            if k != i:
                scale *= max(1.0, float(np.sum(np.abs(g))))
        for j, k in pairs[i]:
            if abs(s[j] - s[k]) > ROOT_TOL * scale:
                problems.append(f"player {i + 1}: slope difference {j}-{k} is {s[j] - s[k]!r}")
        gscale = max(1.0, float(np.sum(np.abs(gammas[i]))))
        for t in labels[i]:
            if abs(gammas[i][t]) > ROOT_TOL * gscale:
                problems.append(f"player {i + 1}: weight {t} is {gammas[i][t]!r}, not 0")
    return problems
