"""Defect-reduction planning from versioned code-metric datasets.

Learn "change these metrics" plans from release history (within-project or
from a community's exemplar project), compare them with threshold-based
baseline planners, and score every planner by how well its plans overlap
with what developers actually changed and what happened to defect counts.
"""

from .datasets import (
    ACTIONS,
    DECREASE,
    INCREASE,
    METRICS,
    NO_CHANGE,
    ClassRecord,
    Community,
    DatasetError,
    Project,
    VersionedDataset,
    diff_versions,
    load_community,
    load_csv,
    load_project,
    pool_versions,
)
from .stats import LogisticFit, fit_univariate_logistic, simpson_integrate
from .discretize import BinMap, apply_bins, mdlp_cuts
from .tree import (
    Branch,
    Condition,
    TreeNode,
    build_tree,
    fit_bins,
    leaves,
    locate,
    predict_defective,
    tree_to_dict,
)
from .planners import (
    Action,
    Plan,
    PlannerBase,
    ThresholdPlanner,
    ThresholdRule,
    XTreePlanner,
    alves_thresholds,
    make_planner,
    oliveira_thresholds,
    plan_targets,
    shatnawi_thresholds,
    suggest_refactorings,
    threshold_plan,
    varl,
    weighted_percentile,
    xtree_plan,
)
from .bellwether import (
    BellwetherReport,
    discover,
    exemplar_train,
    g_score,
)
from .evaluate import (
    ChangesSummary,
    CurvePoint,
    KTestResult,
    evaluate_windows,
    ktest,
    overlap,
)
from . import refactorings

__version__ = "0.1.0"

__all__ = [
    "ACTIONS", "DECREASE", "INCREASE", "METRICS", "NO_CHANGE",
    "ClassRecord", "Community", "DatasetError", "Project", "VersionedDataset",
    "diff_versions", "load_community", "load_csv", "load_project",
    "pool_versions",
    "LogisticFit", "fit_univariate_logistic", "simpson_integrate",
    "BinMap", "apply_bins", "mdlp_cuts",
    "Branch", "Condition", "TreeNode", "build_tree", "fit_bins", "leaves",
    "locate", "predict_defective", "tree_to_dict",
    "Action", "Plan", "PlannerBase", "ThresholdPlanner", "ThresholdRule",
    "XTreePlanner", "alves_thresholds",
    "make_planner", "oliveira_thresholds", "plan_targets",
    "shatnawi_thresholds", "suggest_refactorings", "threshold_plan", "varl",
    "weighted_percentile", "xtree_plan",
    "BellwetherReport", "discover", "exemplar_train", "g_score",
    "ChangesSummary", "CurvePoint", "KTestResult",
    "evaluate_windows", "ktest", "overlap",
    "refactorings",
]
