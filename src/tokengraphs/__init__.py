"""Token graph laboratory: double vertex graphs, k-token graphs, pair
graphs, exact maximum independent sets, closed-form independence-number
evaluators, explicit witness constructions, and a verification CLI."""

from .graphs import (
    Graph,
    cartesian_product,
    complete,
    components,
    cycle,
    delete_vertices,
    disjoint_union,
    fan,
    induced_subgraph,
    is_isomorphic,
    join,
    path,
    wheel,
)
from .mis import (
    IndependentSet,
    MisResult,
    SolveAborted,
    alpha,
    brute_force_alpha,
    is_independent,
)
from .operators import (
    DerivedGraph,
    TokenVertex,
    double_vertex,
    index_of,
    indices_of,
    k_token,
    multiset_token,
    pair_graph,
    pair_ranks,
    subset_token,
    token_label_of,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "DerivedGraph",
    "TokenVertex",
    "IndependentSet",
    "MisResult",
    "SolveAborted",
    "path",
    "cycle",
    "complete",
    "fan",
    "wheel",
    "join",
    "disjoint_union",
    "cartesian_product",
    "delete_vertices",
    "induced_subgraph",
    "components",
    "is_isomorphic",
    "double_vertex",
    "k_token",
    "pair_graph",
    "subset_token",
    "multiset_token",
    "token_label_of",
    "index_of",
    "indices_of",
    "pair_ranks",
    "alpha",
    "brute_force_alpha",
    "is_independent",
]
