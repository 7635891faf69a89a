"""Exact minimization of tree-submodular costs over rooted binary trees.

Label domains are rooted trees; costs over their product satisfying the
midpoint-pair inequality are minimized exactly by a two-stage steepest
descent whose inner problems are submodular (inward) and bisubmodular
(outward) minimizations.  The package also ships exhaustive property
checkers, verified instance generators, the fork-tree reduction for the
weak variant of the inequality, and a batch CLI.
"""

from . import errors
from .checks import (
    CheckReport,
    ViolationWitness,
    check_multimorphism,
    check_strong,
    check_translation,
    check_weak,
    meet_join_tables,
    min_max_tables,
    projection_tables,
    wedge_vee_tables,
)
from .descent import (
    Certificate,
    DescentTrace,
    StepDiagnostics,
    inward_restrict,
    minimize,
    minimize_exhaustive,
    outward_restrict,
    rho_minus,
    rho_plus,
)
from .functions import (
    CostFunction,
    DenseTable,
    InstanceFixture,
    Labeling,
    ProductDomain,
    SumOfTerms,
    Term,
    chain_tree,
    complete_binary_tree,
    fixture_catalog_names,
    fork_tree,
    generate,
    materialize,
    random_tree,
    star3_tree,
)
from .rng import SplitMix64
from .solvers import (
    BinaryCubeFunction,
    SignBoxFunction,
    bisub_brute,
    bisub_minnorm,
    sfm_brute,
    sfm_wolfe,
)
from .trees import (
    PathView,
    RootedTree,
    meet_join,
    path,
    rho,
    rho_inf,
    up_down,
    wedge_vee,
)
from .weak import (
    ForkTree,
    NotFork,
    encoding_table,
    in_image,
    minimize_weak,
    psi,
    psi_inverse,
    recognize,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryCubeFunction",
    "Certificate",
    "CheckReport",
    "CostFunction",
    "DenseTable",
    "DescentTrace",
    "ForkTree",
    "InstanceFixture",
    "Labeling",
    "NotFork",
    "PathView",
    "ProductDomain",
    "RootedTree",
    "SignBoxFunction",
    "SplitMix64",
    "StepDiagnostics",
    "SumOfTerms",
    "Term",
    "ViolationWitness",
    "bisub_brute",
    "bisub_minnorm",
    "chain_tree",
    "check_multimorphism",
    "check_strong",
    "check_translation",
    "check_weak",
    "complete_binary_tree",
    "encoding_table",
    "errors",
    "fixture_catalog_names",
    "fork_tree",
    "generate",
    "in_image",
    "inward_restrict",
    "materialize",
    "meet_join",
    "meet_join_tables",
    "min_max_tables",
    "minimize",
    "minimize_exhaustive",
    "minimize_weak",
    "outward_restrict",
    "path",
    "projection_tables",
    "psi",
    "psi_inverse",
    "random_tree",
    "recognize",
    "rho",
    "rho_inf",
    "rho_minus",
    "rho_plus",
    "sfm_brute",
    "sfm_wolfe",
    "star3_tree",
    "up_down",
    "wedge_vee",
]
