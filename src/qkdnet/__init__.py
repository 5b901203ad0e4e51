"""Security analysis of banded trusted-node QKD network segments.

Core surfaces:

- topology: NetworkSegment / Link, the banded adjacency, CompromiseScenario.
- routes: route counting (c-annacci numbers), enumeration, routing scheme.
- combinatorics: exact f(N, m, c) counts and attack probabilities.
- security: eps1 / eps2 / eps_qn scaling and optimal-density analysis.
- simulator: Monte Carlo validation of the attack probabilities.
- protocol: executable XOR key-transport sessions.

Importing the package loads none of its submodules.  Each exported name
(``_HOMES`` below) and each submodule loads on first access (PEP 562):
``qkdnet.run_trials`` loads ``qkdnet.simulator`` and with it numpy, and
``qkdnet.run_session`` loads ``qkdnet.protocol``, ``qkdnet.routes`` and
hashlib.  ``qkdnet.cli`` loads only topology, combinatorics, security and
errors up front, and imports the rest in the commands that use it.
The exact kernels import ``qkdnet.chains``, and ``epsilon2_exact`` numpy,
when they run.
"""

__version__ = "0.1.0"

# Submodule -> the names it exports here.
_HOMES = {
    "combinatorics": ("AttackProbability", "binomial", "f_inclusion_exclusion",
                      "p_success_approx", "p_success_exact"),
    "errors": ("CapExceededError", "InconsistencyError", "QkdNetError", "ValidationError"),
    "protocol": ("adversary_view", "reconstruct_at_endpoint", "run_session"),
    "routes": ("RouteSet", "RoutingScheme", "build_routing_scheme", "cannacci_count",
               "enumerate_routes"),
    "security": ("SecurityParams", "SecurityReport", "epsilon1_approx", "epsilon1_exact",
                 "epsilon2_approx", "epsilon2_exact", "epsilon_qn", "hash_reduction_factor",
                 "optimal_c_integer", "optimal_c_root"),
    "simulator": ("TrialStats", "run_trials", "node_attack_succeeds", "link_attack_succeeds"),
    "topology": ("CompromiseScenario", "Link", "NetworkSegment", "make_segment"),
}
# Exported name -> its submodule, and every submodule -> itself.
_EXPORTS = {name: home for home, names in _HOMES.items() for name in names}
_EXPORTS.update((module, module) for module in (*_HOMES, "cli"))


def __getattr__(name: str):
    home = _EXPORTS.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ takes the interpreter's own import path, which -X importtime
    # reports; importing a submodule binds it in this namespace.
    __import__(f"{__name__}.{home}")
    if home == name:
        return globals()[name]
    value = globals()[name] = getattr(globals()[home], name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
