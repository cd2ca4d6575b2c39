"""Nash equilibrium enumeration and genericity certification for finite
normal-form games, built on a chart atlas over a product of projective
spaces.

The public surface groups into four layers:

- games: build, parse, and sample finite games ([`make_game`],
  [`parse_game`], [`random_game`]) and their mixed strategy profiles.
- forms: multilinear payoff functions and their slope/offset
  decompositions in affine and homogenized coordinates.
- atlas: charts on the compactified strategy space, coordinate and
  payoff-difference hypersurfaces, and transitions between charts.
- equilibrium/genericity: support enumeration, exact and numeric
  equilibrium solving, and transversality certification of the
  defining equations.
"""

from .atlas import (
    INF,
    ChartExcludesHypersurface,
    ChartPoint,
    Coordinate,
    PayoffDiff,
    all_charts,
    chart_point,
    chart_zero_point,
    defining_map,
    excluded_hypersurfaces,
    format_chart,
    on_hypersurface,
    parse_chart,
    parse_hypersurface,
    read_chart,
    transition,
)
from .equilibrium import (
    BestReplyReport,
    EnumerationResult,
    EquilibriumCertificate,
    SingularSystem,
    best_reply_check,
    certify_equilibrium,
    enumerate_nash,
    enumerate_supports,
    solve_support,
)
from .forms import (
    HomogeneousDecomposition,
    LambdaDecomposition,
    MultilinearForm,
    homogeneous_decomposition,
    lambda_decomposition,
    payoff_form,
    payoff_slice_values,
    to_tilde_coordinates,
)
from .game import (
    FLOAT,
    MEMBERSHIP_TOL,
    RANK_TOL,
    RATIONAL,
    FiniteGame,
    GameFormatError,
    MixedProfile,
    SupportProfile,
    make_game,
    parse_game,
    profile_from_weights,
    random_game,
    serialize_game,
    support_of,
)
from .genericity import (
    GoodFamily,
    ProbeReport,
    TransversalityReport,
    canonical_equilibrium_family,
    good_family,
    is_good,
    regular_value_probe,
    transversal_at,
    witness_cycle,
)

__version__ = "0.1.0"

__all__ = [
    "INF",
    "MEMBERSHIP_TOL",
    "RANK_TOL",
    "FLOAT",
    "RATIONAL",
    "BestReplyReport",
    "ChartExcludesHypersurface",
    "ChartPoint",
    "Coordinate",
    "EnumerationResult",
    "EquilibriumCertificate",
    "FiniteGame",
    "GameFormatError",
    "GoodFamily",
    "HomogeneousDecomposition",
    "LambdaDecomposition",
    "MixedProfile",
    "MultilinearForm",
    "PayoffDiff",
    "ProbeReport",
    "SingularSystem",
    "SupportProfile",
    "TransversalityReport",
    "all_charts",
    "best_reply_check",
    "canonical_equilibrium_family",
    "certify_equilibrium",
    "chart_point",
    "chart_zero_point",
    "defining_map",
    "enumerate_nash",
    "enumerate_supports",
    "excluded_hypersurfaces",
    "format_chart",
    "good_family",
    "homogeneous_decomposition",
    "is_good",
    "lambda_decomposition",
    "make_game",
    "on_hypersurface",
    "parse_chart",
    "parse_game",
    "parse_hypersurface",
    "payoff_form",
    "payoff_slice_values",
    "profile_from_weights",
    "random_game",
    "read_chart",
    "regular_value_probe",
    "serialize_game",
    "solve_support",
    "support_of",
    "to_tilde_coordinates",
    "transition",
    "transversal_at",
    "witness_cycle",
]
