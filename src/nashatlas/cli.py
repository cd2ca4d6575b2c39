"""Command-line front end.

Subcommands: solve (enumerate equilibria of a game file), lambda
(print a player's payoff decomposition), goodcheck (forest condition
of a family spec), sample (random-game statistics), certify
(transversality of a family at a point), charts (the atlas and each
chart's complement).

Each subcommand defines only the options it reads: --seed on solve and
sample; a game file and --exact on solve, lambda and certify; --t and
--r on goodcheck and certify. Any other option is a usage error. No
tolerance is settable: each is a constant of the table in nashatlas.game.

Reports are human text by default, or machine-readable with --json
(top-level keys meta/results/warnings; exact rationals as "p/q"
strings, infinities as null). meta echoes the options the subcommand
defines, then what it worked on. Exit codes: 0 success, 1 usage or
parse error, 2 degeneracy witnessed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import sys
from fractions import Fraction

import numpy as np

from .atlas import (
    INF,
    _check_in_chart,
    all_charts,
    chart_zero_point,
    excluded_hypersurfaces,
    format_chart,
    parse_chart,
    transition,
)
from .equilibrium import EnumerationResult, enumerate_nash, support_label
from .forms import lambda_decomposition, payoff_slice_values
from .game import (
    FLOAT,
    RATIONAL,
    FiniteGame,
    GameFormatError,
    _check_blocks,
    _index,
    make_game,
    parse_game,
    profile_from_weights,
    random_game,
    support_of,
)
from .genericity import (
    canonical_equilibrium_family,
    good_family,
    transversal_at,
    witness_cycle,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DEGENERATE = 2


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; this tool reserves 2
    for witnessed degeneracy, so remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return str(x)
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".10g")


def _jnum(x):
    """JSON-safe number: Fractions become 'p/q' strings, non-finite
    floats become null."""
    if isinstance(x, Fraction):
        return str(x)
    x = float(x)
    return x if math.isfinite(x) else None


def _fmt_weights(weights) -> str:
    return " | ".join(
        "(" + ", ".join(_fmt(x) for x in w) + ")" for w in weights
    )


def _load_game(args) -> FiniteGame:
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise GameFormatError(f"cannot read {args.file}: {e.strerror}") from e
    return parse_game(text, RATIONAL if args.exact else FLOAT)


def _zero_game(shape_text: str) -> FiniteGame:
    counts = _parse_shape(shape_text)
    # make_game checks the counts before it reads a tensor of that shape
    return make_game(counts, (np.zeros(counts) for _ in counts))


def _seed(text: str) -> int:
    """A --seed value: a non-negative integer, checked before any work."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return seed


def _parse_shape(text: str) -> tuple[int, ...]:
    """The strategy counts of a --shape; make_game checks them."""
    try:
        return tuple(int(p) for p in text.lower().split("x"))
    except ValueError:
        raise ValueError(f"bad shape {text!r}: expected like 2x3x2") from None


def _parse_family(game: FiniteGame, t_specs, r_specs):
    m = game.num_players
    T = [[] for _ in range(m)]
    R = [[] for _ in range(m)]

    def entries(spec: str, flag: str, form: str, item):
        """Player index and parsed items of one --t or --r spec."""
        try:
            head, rest = spec.split(":")
            player = int(head)
            items = [item(part) for part in rest.split(",") if part]
        except ValueError:
            raise ValueError(f"bad {flag} spec {spec!r}: expected {form}") from None
        return _index(player, f"{flag} spec {spec!r}: player", m + 1, 1) - 1, items

    def pair(part: str) -> tuple[int, int]:
        j, k = part.split("-")
        return int(j), int(k)

    for spec in t_specs or ():
        i, labels = entries(spec, "--t", "i:j[,j...]",
                            lambda part: INF if part == "inf" else int(part))
        T[i] += labels
    for spec in r_specs or ():
        i, pairs = entries(spec, "--r", "i:j-k[,j-k...]", pair)
        R[i] += pairs
    return good_family(game, T, R)


def _solve_payload(result: EnumerationResult, payoffs) -> dict:
    items = []
    for cert, values in zip(result.equilibria, payoffs):
        items.append(
            {
                "point": [[_jnum(x) for x in block] for block in cert.point.weights],
                "support": [list(s) for s in cert.support.supports],
                "payoffs": [_jnum(v) for v in values],
                "equality_residual": _jnum(cert.equality_residual),
                "margins": [_jnum(m) for m in cert.inequality_margins],
                "jacobian_verdict": cert.jacobian_verdict,
                "smallest_singular_value": _jnum(cert.smallest_singular_value),
                "exact": cert.exact,
                "boundary_degenerate": cert.boundary_degenerate,
            }
        )
    witness = result.continuum_witness
    return {
        "count": result.count,
        "equilibria": items,
        "continuum": result.continuum,
        "continuum_witness": (
            [[_jnum(x) for x in w] for w in witness.weights] if witness else None
        ),
    }


def _payoffs(game: FiniteGame, point) -> list:
    """Each player's payoff at point, sum_s w_s * slope_s, exactly
    (payoff_slice_values); rounded once to float in a float game."""
    weights = point.weights if point.exact else [[Fraction(x) for x in w] for w in point.weights]
    values = [sum(map(operator.mul, w, payoff_slice_values(game, i, weights)))
              for i, w in enumerate(weights)]
    return values if game.mode == RATIONAL else list(map(float, values))


def _cmd_solve(args):
    game = _load_game(args)
    result = enumerate_nash(game, seed=args.seed)
    payoffs = [_payoffs(game, cert.point) for cert in result.equilibria]
    lines = [
        f"game: {game.num_players} players, strategies "
        + "x".join(map(str, game.strategy_counts))
        + f", mode {game.mode}"
    ]
    if result.continuum:
        lines.append("non-generic: continuum detected")
        if result.continuum_witness is not None:
            lines.append(
                "continuum witness: " + _fmt_weights(result.continuum_witness.weights)
            )
    else:
        lines.append(f"equilibria: {result.count}")
        for idx, (cert, values) in enumerate(zip(result.equilibria, payoffs), start=1):
            sv = f" (smallest singular value {_fmt(cert.smallest_singular_value)})"
            lines.append(f"#{idx} support {{{support_label(cert.support)}}}")
            lines.append(f"   point: {_fmt_weights(cert.point.weights)}")
            lines.append(f"   payoffs: {' '.join(_fmt(v) for v in values)}")
            lines.append(
                f"   equality residual: {_fmt(cert.equality_residual)}; margins: "
                + " | ".join(_fmt(m) for m in cert.inequality_margins)
            )
            flag = " [boundary-degenerate]" if cert.boundary_degenerate else ""
            lines.append(f"   jacobian: {cert.jacobian_verdict}{sv}{flag}")
    return (
        _report(args, _solve_payload(result, payoffs), result.warnings, mode=game.mode),
        lines + [f"warning: {w}" for w in result.warnings],
        EXIT_DEGENERATE if result.degenerate else EXIT_OK,
    )


def _monomial_entries(form):
    out = []
    for idx in np.ndindex(*form.coeffs.shape):
        label = (
            "*".join(
                f"g{form.blocks[t] + 1}_{j}" for t, j in enumerate(idx) if j != 0
            )
            or "const"
        )
        out.append((label, form.coeffs[idx]))
    return out


def _cmd_lambda(args):
    game = _load_game(args)
    dec = lambda_decomposition(game, _index(args.player, "--player", game.num_players + 1, 1) - 1)

    def render(name, form):
        entries = _monomial_entries(form)
        text = ", ".join(f"{label} = {_fmt(c)}" for label, c in entries)
        return f"{name}: {text}", {label: _jnum(c) for label, c in entries}

    lines, payload = [], {}
    line, payload["kappa"] = render(f"kappa^{args.player}", dec.kappa)
    lines.append(line)
    payload["lambdas"] = []
    for j, lam in enumerate(dec.lambdas):
        line, entry = render(f"lambda^{args.player}_{j}", lam)
        lines.append(line)
        payload["lambdas"].append(entry)
    return _report(args, payload, mode=game.mode, player=args.player), lines, EXIT_OK


def _family_payload(family) -> dict:
    return {
        "T": [["inf" if t == INF else t for t in ts] for ts in family.T],
        "R": [[list(p) for p in ps] for ps in family.R],
    }


def _cmd_goodcheck(args):
    game = _zero_game(args.shape)
    family = _parse_family(game, args.t, args.r)
    cycle = witness_cycle(family)
    good = cycle is None
    if good:
        lines = ["good"]
    else:
        player, verts = cycle
        path = "-".join(map(str, verts + [verts[0]]))
        lines = [f"not good: player {player + 1} has cycle {path}"]
    payload = {
        "good": good,
        **_family_payload(family),
        "cycle": None if good else {"player": cycle[0] + 1, "vertices": list(cycle[1])},
    }
    return _report(args, payload, shape=args.shape), lines, EXIT_OK


def _cmd_sample(args):
    counts = _parse_shape(args.shape)
    _index(args.count, "--count", start=1)
    rows = []
    odd_hits = 0
    witness_hits = 0
    for k in range(args.count):
        seed = args.seed + k
        game = random_game(counts, seed=seed, distribution=args.distribution)
        result = enumerate_nash(game, seed=seed)
        count = None if result.continuum else result.count
        odd = count is not None and count % 2 == 1
        all_regular = all(
            c.jacobian_verdict == "regular" for c in result.equilibria
        )
        odd_hits += odd
        witness_hits += result.degenerate
        rows.append(
            {
                "seed": seed,
                "count": count,
                "odd": odd,
                "all_regular": all_regular,
                "degeneracy_witnessed": result.degenerate,
                "warnings": len(result.warnings),
            }
        )
    oddness_rate = odd_hits / args.count
    witness_rate = witness_hits / args.count
    lines = [
        f"sampled {args.count} games of shape {args.shape} "
        f"({args.distribution}, seeds {args.seed}..{args.seed + args.count - 1})",
        f"oddness rate: {oddness_rate:.3f}",
        f"degeneracy-witness rate: {witness_rate:.3f}",
    ]
    for row in rows:
        if not row["odd"] or row["degeneracy_witnessed"]:
            lines.append(
                f"  seed {row['seed']}: count {row['count']}, "
                f"odd {row['odd']}, degeneracy {row['degeneracy_witnessed']}"
            )
    payload = {
        "games": rows,
        "oddness_rate": oddness_rate,
        "degeneracy_witness_rate": witness_rate,
    }
    return _report(args, payload, shape=args.shape, count=args.count,
                   distribution=args.distribution), lines, EXIT_OK


def _point_from_solve_json(path: str, index: int):
    _index(index, "--index")
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e.strerror}") from e
    except json.JSONDecodeError as e:
        raise ValueError(f"{path} is not valid JSON: {e}") from None
    try:
        eqs = data["results"]["equilibria"]
        point = eqs[index]["point"]
    except (KeyError, IndexError, TypeError):
        raise ValueError(
            f"{path} has no equilibrium point at index {index}"
        ) from None
    return point


def _cmd_certify(args):
    if args.index is not None and args.from_json is None:
        raise ValueError("--index needs --from-json")
    game = _load_game(args)
    if args.point is not None:
        blocks = [b.split(",") for b in args.point.split(";")]
    else:
        blocks = _point_from_solve_json(args.from_json, args.index or 0)
    # each weight as typed (a JSON number by its repr); any p/q makes the point exact
    text = [[str(x) for x in b] for b in blocks]
    mode = RATIONAL if any("/" in x for b in text for x in b) else FLOAT
    _check_blocks(text, game.strategy_counts, "weight", mode)
    profile = profile_from_weights(text, mode)
    # a p/q point sums to exactly 1; a float point within rounding
    if not profile.in_A():
        raise ValueError("point weights must sum to 1 per player")
    chart = (
        parse_chart(args.chart, game)
        if args.chart
        else (0,) * game.num_players
    )
    if args.t or args.r:
        family = _parse_family(game, args.t, args.r)
    else:
        family = canonical_equilibrium_family(game, support_of(profile))
    _check_in_chart(chart, family.hypersurfaces())
    point = chart_zero_point(profile)
    if chart != point.chart:
        point = transition(point, chart)
    report = transversal_at(game, family, point)
    lines = [
        f"chart: {format_chart(chart)}",
        "active: " + (", ".join(str(h) for h in report.active) or "(none)"),
        f"rank: {report.rank} of {len(report.active)}",
        f"smallest singular value: {_fmt(report.smallest_singular_value)}",
        f"verdict: {report.verdict}",
    ]
    payload = {
        "chart": format_chart(chart),
        "family": _family_payload(family),
        "active": [str(h) for h in report.active],
        "rank": report.rank,
        "smallest_singular_value": _jnum(report.smallest_singular_value),
        "verdict": report.verdict,
    }
    code = EXIT_OK if report.verdict == "transversal" else EXIT_DEGENERATE
    return _report(args, payload, mode=game.mode), lines, code


def _cmd_charts(args):
    game = _zero_game(args.shape)
    rows = []
    lines = []
    for chart in all_charts(game):
        excluded = excluded_hypersurfaces(game, chart)
        rows.append(
            {"chart": format_chart(chart), "complement": [str(h) for h in excluded]}
        )
        lines.append(
            f"chart {format_chart(chart)}: complement "
            + ", ".join(str(h) for h in excluded)
        )
    return _report(args, {"charts": rows}, shape=args.shape), lines, EXIT_OK


def _report(args, results, warnings=(), **extra) -> dict:
    """The --json report of every subcommand: meta echoes the options
    the subcommand defines, its name, then extra."""
    meta = {key: getattr(args, key) for key in ("seed", "exact", "file") if hasattr(args, key)}
    meta.update(command=args.command, **extra)
    return {"meta": meta, "results": results, "warnings": list(warnings)}


@functools.cache  # parse_args leaves the parser as it was: build it once
def _build_parser() -> _Parser:
    parser = _Parser(prog="nashatlas", description=__doc__.splitlines()[0])
    # one parent per option group, each given only to the subcommands that
    # read it
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--json", action="store_true", help="machine-readable report")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_seed, default=0, help="random seed, >= 0")
    game_file = argparse.ArgumentParser(add_help=False)
    game_file.add_argument("file", help="game file")
    game_file.add_argument("--exact", action="store_true",
                           help="exact rational arithmetic")
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--t", action="append", metavar="i:j[,j...]",
                        help="coordinate labels per player (inf allowed)")
    family.add_argument("--r", action="append", metavar="i:j-k[,j-k...]",
                        help="strategy pairs per player")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("solve", parents=[report, seeded, game_file],
                       help="enumerate Nash equilibria")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("lambda", parents=[report, game_file],
                       help="print a player's payoff decomposition")
    p.add_argument("--player", type=int, required=True, help="player number (1-based)")
    p.set_defaults(handler=_cmd_lambda)

    p = sub.add_parser("goodcheck", parents=[report, family],
                       help="check the forest condition of a family")
    p.add_argument("--shape", required=True, help="strategy counts, like 3x3")
    p.set_defaults(handler=_cmd_goodcheck)

    p = sub.add_parser("sample", parents=[report, seeded],
                       help="random-game equilibrium statistics")
    p.add_argument("shape", help="strategy counts, like 2x2x2")
    p.add_argument("--count", type=int, default=1, help="number of games")
    p.add_argument("--distribution", choices=["uniform", "normal"],
                   default="uniform", help="payoff entry distribution")
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("certify", parents=[report, game_file, family],
                       help="transversality of a family at a point")
    point = p.add_mutually_exclusive_group(required=True)
    point.add_argument("--point", help="weights, players ';'-separated: 0.5,0.5;0.5,0.5")
    point.add_argument("--from-json", dest="from_json",
                       help="read the point from a solve --json report")
    p.add_argument("--index", type=int,
                   help="equilibrium index in the --from-json report (default 0)")
    p.add_argument("--chart", help="chart spec l1,l2,... (default all zeros)")
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("charts", parents=[report],
                       help="print the atlas and each chart's complement")
    p.add_argument("--shape", required=True, help="strategy counts, like 2x3")
    p.set_defaults(handler=_cmd_charts)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        report, lines, code = args.handler(args)
    except (ValueError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
