"""Minimax and Bayesian strategies for the Gaussian two-armed bandit under
batch processing: exact backward recursion, diffusion limit, worst-case
prior search, strategy evaluation and Monte-Carlo validation."""

from .core import (
    ConfigurationError,
    InternalError,
    SymmetricPrior,
    UGrid,
    loss_profile,
    transition_variance,
)
from .dp import DpConfig, SolveOutput, StrategyTable, solve_invariant
from .pde import PdeConfig, PdeSolution, solve_pde
from .search import (
    RefineResult,
    SaddleReport,
    ScanCurve,
    ScanPoint,
    refine,
    saddle_check,
    scan,
)
from .simulate import (
    BatchTrialConfig,
    TrialResult,
    simulate_bernoulli,
    simulate_gaussian,
)
from .strategy_eval import EvalResult, EvalStrategy, RiskCurveRow, evaluate, risk_curve
from .strategy_io import (
    STRATEGY_FORMAT_VERSION,
    StrategyFormatError,
    load_strategy,
    save_strategy,
)

__version__ = "0.1.0"

__all__ = [
    "BatchTrialConfig",
    "ConfigurationError",
    "DpConfig",
    "EvalResult",
    "EvalStrategy",
    "InternalError",
    "PdeConfig",
    "PdeSolution",
    "RefineResult",
    "RiskCurveRow",
    "STRATEGY_FORMAT_VERSION",
    "SaddleReport",
    "ScanCurve",
    "ScanPoint",
    "SolveOutput",
    "StrategyFormatError",
    "StrategyTable",
    "SymmetricPrior",
    "TrialResult",
    "UGrid",
    "evaluate",
    "load_strategy",
    "loss_profile",
    "refine",
    "risk_curve",
    "saddle_check",
    "save_strategy",
    "scan",
    "simulate_bernoulli",
    "simulate_gaussian",
    "solve_invariant",
    "solve_pde",
    "transition_variance",
]
