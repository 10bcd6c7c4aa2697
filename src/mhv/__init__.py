"""Maximum Happy Vertices solver toolkit.

Extend a partial vertex colouring so as many vertices as possible end up with
all-same-coloured neighbourhoods.  Provides a beam-bounded dynamic program
over nice tree decompositions (exact when the beam is wide enough), the exact
bounded-treewidth algorithm, the Greedy/Growth constructive baselines, a
brute-force oracle, an instance generator and a benchmark harness.
"""

from .baselines import GrowthLabel, compute_growth_labels, greedy_mhv, growth_mhv
from .errors import InputError, MhvError, ParseError, ResourceLimitError
from .exact import solve_exact
from .graph import (
    FullColouring,
    Graph,
    Instance,
    InstanceReport,
    PartialColouring,
    count_happy,
    happy_fraction,
    is_happy,
    parse_colouring,
    parse_graph,
    validate_instance,
    write_colouring,
    write_graph,
)
from .harness import (
    AlgorithmSpec,
    BenchRecord,
    GeneratorParams,
    bench_run,
    bench_to_csv,
    generate,
    hardest_regime,
    random_tree,
)
from .heuristic import (
    Beam,
    HeuristicConfig,
    HeuristicSolver,
    Label,
    LabelWeights,
    PartialSolution,
    evaluate,
    exactness_width_bound,
    solve_heuristic,
)
from .oracle import brute_force
from .result import SolveResult
from .treedec import (
    NiceTreeDecomposition,
    TdStats,
    TreeDecomposition,
    make_nice,
    min_fill_decompose,
    parse_td,
    td_stats,
    validate_nice,
    validate_td,
    write_td,
)

__all__ = [
    "AlgorithmSpec",
    "Beam",
    "BenchRecord",
    "FullColouring",
    "GeneratorParams",
    "Graph",
    "GrowthLabel",
    "HeuristicConfig",
    "HeuristicSolver",
    "InputError",
    "Instance",
    "InstanceReport",
    "Label",
    "LabelWeights",
    "MhvError",
    "NiceTreeDecomposition",
    "ParseError",
    "PartialColouring",
    "PartialSolution",
    "ResourceLimitError",
    "SolveResult",
    "TdStats",
    "TreeDecomposition",
    "bench_run",
    "bench_to_csv",
    "brute_force",
    "compute_growth_labels",
    "count_happy",
    "evaluate",
    "exactness_width_bound",
    "generate",
    "greedy_mhv",
    "growth_mhv",
    "happy_fraction",
    "hardest_regime",
    "is_happy",
    "make_nice",
    "min_fill_decompose",
    "parse_colouring",
    "parse_graph",
    "parse_td",
    "random_tree",
    "solve_exact",
    "solve_heuristic",
    "td_stats",
    "validate_instance",
    "validate_nice",
    "validate_td",
    "write_colouring",
    "write_graph",
    "write_td",
]

__version__ = "0.1.0"
