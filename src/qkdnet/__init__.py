"""Security analysis of banded trusted-node QKD network segments.

Core surfaces:

- topology: NetworkSegment / Link, the banded adjacency, CompromiseScenario.
- routes: route counting (c-annacci numbers), enumeration, routing scheme.
- combinatorics: exact f(N, m, c) counts and attack probabilities.
- security: eps1 / eps2 / eps_qn scaling and optimal-density analysis.
- simulator: Monte Carlo validation of the attack probabilities.
- protocol: executable XOR key-transport sessions.

Importing the package does not import numpy.  The simulator names
``TrialStats``, ``run_trials``, ``node_attack_succeeds`` and
``link_attack_succeeds`` are loaded on first access (PEP 562), and with
them numpy; ``epsilon2_exact`` imports numpy when it runs.
"""

from .combinatorics import (
    AttackProbability,
    binomial,
    f_inclusion_exclusion,
    p_success_approx,
    p_success_exact,
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
from .topology import CompromiseScenario, Link, NetworkSegment, make_segment

__version__ = "0.1.0"

_SIMULATOR_NAMES = frozenset(
    ("TrialStats", "run_trials", "node_attack_succeeds", "link_attack_succeeds")
)


def __getattr__(name: str):
    if name in _SIMULATOR_NAMES:
        from . import simulator

        return getattr(simulator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
