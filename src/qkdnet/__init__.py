"""Security analysis of banded trusted-node QKD network segments.

Core surfaces:

- topology: NetworkSegment / Link and the banded adjacency.
- routes: route counting (c-annacci numbers), enumeration, routing scheme.
- combinatorics: exact f(N, m, c) counts and attack probabilities.
- security: eps1 / eps2 / eps_qn scaling and optimal-density analysis.
- simulator: Monte Carlo validation of the attack probabilities.
- protocol: executable XOR key-transport sessions.
"""

from .combinatorics import (
    AttackProbability,
    binomial,
    f_generating_function,
    f_inclusion_exclusion,
    p_compromise_m,
    p_success_approx,
    p_success_exact,
    p_success_given_m,
)
from .errors import CapExceededError, InconsistencyError, QkdNetError, ValidationError
from .protocol import adversary_view, reconstruct_at_endpoint, run_session
from .routes import (
    RouteSet,
    RoutingScheme,
    build_routing_scheme,
    cannacci_count,
    enumerate_routes,
    min_link_cut_size,
)
from .security import (
    SecurityParams,
    SecurityReport,
    epsilon1_approx,
    epsilon1_exact,
    epsilon2_approx,
    epsilon2_exact,
    epsilon_qn,
    hash_reduction_factor,
    optimal_c_integer,
    optimal_c_root,
)
from .simulator import (
    CompromiseScenario,
    TrialStats,
    link_attack_succeeds,
    node_attack_succeeds,
    run_trials,
)
from .topology import Link, NetworkSegment, make_segment

__version__ = "0.1.0"
