"""The public surface, pinned: every name in nashatlas.__all__, with its
parameter names for a function and its public fields, properties and
methods (with their parameter names) for a class. Adding, removing or
renaming a public name or parameter is then an edit of SURFACE below,
visible in review."""

import dataclasses
import functools
import inspect

import nashatlas

SURFACE = """
class BestReplyReport
BestReplyReport.all_ok property
BestReplyReport.boundary field
BestReplyReport.equality_residuals field
BestReplyReport.inequality_margins field
BestReplyReport.ok field
class ChartExcludesHypersurface
class ChartPoint
ChartPoint.chart field
ChartPoint.coords field
ChartPoint.full_vector(self, i)
ChartPoint.full_vectors(self)
ChartPoint.num_players property
class Coordinate
Coordinate.index field
Coordinate.player field
class EnumerationResult
EnumerationResult.continuum field
EnumerationResult.continuum_witness field
EnumerationResult.count property
EnumerationResult.degenerate property
EnumerationResult.equilibria field
EnumerationResult.warnings field
class EquilibriumCertificate
EquilibriumCertificate.boundary_degenerate field
EquilibriumCertificate.equality_residual field
EquilibriumCertificate.exact property
EquilibriumCertificate.inequality_margins field
EquilibriumCertificate.jacobian_verdict field
EquilibriumCertificate.point field
EquilibriumCertificate.smallest_singular_value field
EquilibriumCertificate.support field
FLOAT
class FiniteGame
FiniteGame.integer_rows property
FiniteGame.integer_utilities property
FiniteGame.mode field
FiniteGame.num_players property
FiniteGame.payoff_exponents property
FiniteGame.strategy_counts field
FiniteGame.utilities field
class GameFormatError
class GoodFamily
GoodFamily.R field
GoodFamily.T field
GoodFamily.hypersurfaces(self)
GoodFamily.num_pairs property
class HomogeneousDecomposition
HomogeneousDecomposition.K field
HomogeneousDecomposition.Lambdas field
HomogeneousDecomposition.player field
INF
class LambdaDecomposition
LambdaDecomposition.kappa field
LambdaDecomposition.lambdas field
LambdaDecomposition.player field
MEMBERSHIP_TOL
class MixedProfile
MixedProfile.as_floats(self)
MixedProfile.exact property
MixedProfile.in_A(self)
MixedProfile.in_G(self)
MixedProfile.num_players property
MixedProfile.weights field
class MultilinearForm
MultilinearForm.blocks field
MultilinearForm.coeffs field
MultilinearForm.eval(self, points)
MultilinearForm.grad(self, points, block)
MultilinearForm.input_length(self, t)
MultilinearForm.is_rational property
MultilinearForm.lift_input(self, t, vec)
MultilinearForm.pinned field
class PayoffDiff
PayoffDiff.pair field
PayoffDiff.player field
class ProbeReport
ProbeReport.chart field
ProbeReport.dimension field
ProbeReport.empty_face field
ProbeReport.family field
ProbeReport.num_equations field
ProbeReport.roots field
ProbeReport.verdict field
RANK_TOL
RATIONAL
class SingularSystem
class SupportProfile
SupportProfile.supports field
class TransversalityReport
TransversalityReport.active field
TransversalityReport.chart field
TransversalityReport.jacobian field
TransversalityReport.point field
TransversalityReport.rank field
TransversalityReport.smallest_singular_value field
TransversalityReport.verdict field
all_charts(game)
best_reply_check(game, profile)
canonical_equilibrium_family(game, support)
certify_equilibrium(game, cert)
chart_point(game, chart, coords, mode)
chart_zero_point(profile)
defining_map(game, h, chart)
enumerate_nash(game, seed)
enumerate_supports(game)
excluded_hypersurfaces(game, chart)
format_chart(chart)
good_family(game, T, R)
homogeneous_decomposition(game, i)
is_good(family)
lambda_decomposition(game, i)
make_game(strategy_counts, utilities, mode)
on_hypersurface(game, h, point)
parse_chart(text, game)
parse_game(text, mode)
parse_hypersurface(text, game)
payoff_form(game, i)
payoff_slice_values(game, i, weights)
profile_from_weights(weights, mode)
random_game(strategy_counts, seed, distribution)
read_chart(vectors, chart)
regular_value_probe(game, family, chart, seed)
serialize_game(game)
solve_support(game, support, seed)
support_of(profile)
to_tilde_coordinates(form)
transition(point, target)
transversal_at(game, family, point, active)
witness_cycle(family)
"""


def _params(fn) -> str:
    return "(" + ", ".join(inspect.signature(fn).parameters) + ")"


def _class_lines(name: str, cls) -> list[str]:
    """A class's public fields, properties and methods, its own and those
    of its nashatlas bases (not object's or Exception's)."""
    members = {}
    for base in reversed(cls.__mro__):
        if base.__module__.startswith("nashatlas"):
            members.update((n, v) for n, v in vars(base).items() if not n.startswith("_"))
    fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    out = [f"class {name}"]
    for n in sorted(set(members) | fields):
        v = members.get(n)
        if n in fields:
            out.append(f"{name}.{n} field")
        elif isinstance(v, (property, functools.cached_property)):
            out.append(f"{name}.{n} property")
        elif callable(v) or isinstance(v, (staticmethod, classmethod)):
            out.append(f"{name}.{n}{_params(getattr(cls, n))}")
        else:
            out.append(f"{name}.{n}")
    return out


def surface() -> list[str]:
    out = []
    for name in sorted(nashatlas.__all__):
        obj = getattr(nashatlas, name)
        if inspect.isclass(obj):
            out.extend(_class_lines(name, obj))
        else:
            out.append(f"{name}{_params(obj)}" if callable(obj) else name)
    return out


def test_public_surface_is_pinned():
    assert surface() == SURFACE.strip().splitlines()
