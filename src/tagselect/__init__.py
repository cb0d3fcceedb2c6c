"""tagselect: sentiment-balanced top-k tag selection.

Given a rule base linking item attribute values to sentiment-labeled tags,
pick the k tags for a user-item pair that satisfy the user's positive/
negative quota and a minimum-relevance bound while maximizing one of two
coverage objectives (sentiment-blind or both-sides).  Ships exhaustive,
branch-and-bound, and greedy solvers plus a benchmark harness.
"""

# Loads numpy, whose time perfbench's cli.import_numpy_s probe reads; ROADMAP item 4 drops this.
from . import datagen  # noqa: F401
from .coverage import (
    DCGraph,
    build_dc_graph,
    cov_dc,
    cov_ic,
    theta_dc,
)
from .errors import (
    AttributeOutOfRange,
    EmptyInstance,
    Infeasible,
    InfeasiblePolarity,
    InstanceTooLarge,
    NoData,
    RulesFileError,
    TagSelectError,
)
from .model import (
    Instance,
    Params,
    Rule,
    Selection,
    Sentiment,
    Tag,
    build_instance,
    make_params,
    split_budget,
)
from .relevance import RelBenchmark, rel_max, rel_total, stepwise_rel_max
from .solvers import (
    Algorithm,
    SolveReport,
    bnb_dc,
    bnb_ic,
    exact_dc,
    exact_ic,
    greedy_dc,
    greedy_ic,
)

__version__ = "0.1.0"

__all__ = [
    "Algorithm",
    "AttributeOutOfRange",
    "DCGraph",
    "EmptyInstance",
    "Infeasible",
    "InfeasiblePolarity",
    "Instance",
    "InstanceTooLarge",
    "NoData",
    "Params",
    "RelBenchmark",
    "Rule",
    "RulesFileError",
    "Selection",
    "Sentiment",
    "SolveReport",
    "Tag",
    "TagSelectError",
    "bnb_dc",
    "bnb_ic",
    "build_dc_graph",
    "build_instance",
    "cov_dc",
    "cov_ic",
    "exact_dc",
    "exact_ic",
    "greedy_dc",
    "greedy_ic",
    "make_params",
    "rel_max",
    "rel_total",
    "split_budget",
    "stepwise_rel_max",
    "theta_dc",
]
