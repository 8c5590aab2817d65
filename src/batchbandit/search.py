"""Worst-case prior search within the symmetric two-point family.

The minimax risk equals the Bayes risk under the least favorable prior, so
the search scans the Bayes risk over the gap parameter d, refines the
interior maximum by golden section (unimodality assumed, the scan guards
against gross multimodality), and certifies the saddle point by evaluating
the frozen optimal strategy at shifted gaps, all in one forward sweep.  As
the frozen loss is linear in the prior, a passed check also bounds the
multi-atom priors on the checked gaps (see SaddleReport).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, InternalError, SymmetricPrior, UGrid, as_float
from .dp import DpConfig, solve_invariant
from .pde import DEFAULT_GRID, PdeConfig, solve_pde
from .strategy_eval import EvalStrategy, evaluate, frozen_losses

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# saddle_check fails only exceedances up to this gap; beyond it the forced
# initial stage, 2*eps*d, dominates any strategy's loss
SADDLE_CUTOFF = 16.0
# saddle_check's slack in risk units: the frozen losses within the cutoff may
# exceed risk_star, and the loss at d_star may miss it, by this much
SADDLE_TOLERANCE = 0.01
# the forward sweep's saddle_check loss at d_star may differ from the
# backward sweep's by rounding only
ANCHOR_TOLERANCE = 1e-12
# d_range refuses a range of more gaps than this: each gap is one solve
MAX_GAPS = 100_000


def backend_grid(backend: str, u_max: float | None = None, du: float | None = None) -> UGrid:
    """The u-grid a backend runs on: u_max and du where given, otherwise the
    library default (UGrid's for dp, PdeConfig's for pde)."""
    default_u_max, default_du = DEFAULT_GRID if backend == "pde" else (UGrid.u_max, UGrid.du)
    return UGrid(default_u_max if u_max is None else u_max, default_du if du is None else du)


def _risk_fn(backend: str, epsilon: float, grid: UGrid):
    """Bayes-risk evaluator d -> risk on the given backend and grid."""
    if backend == "dp":
        return lambda d: solve_invariant(
            DpConfig(epsilon, SymmetricPrior.two_point(d), grid), keep_strategy=False
        ).bayes_risk
    if backend == "pde":
        return lambda d: solve_pde(
            PdeConfig(epsilon, SymmetricPrior.two_point(d), grid)
        ).limit_risk
    raise ConfigurationError(f"backend must be 'dp' or 'pde', got {backend!r}")


@dataclass(frozen=True)
class ScanPoint:
    d: float
    risk: float


@dataclass(frozen=True)
class ScanCurve:
    backend: str
    epsilon: float
    grid: UGrid
    points: tuple[ScanPoint, ...]

    def best_index(self) -> int:
        return int(np.argmax([p.risk for p in self.points]))

    def best(self) -> ScanPoint:
        return self.points[self.best_index()]


def d_range(d_min: float, d_max: float, step: float) -> list[float]:
    """Gaps d_min, d_min + step, ... up to d_max, with d_max appended when the
    step does not reach it exactly.  A step of at most half an ulp of the top
    gap would leave some gap unchanged and the range unending: it is refused,
    as is a range of more than MAX_GAPS gaps, before any is built."""
    d_min, d_max = as_float(d_min, "d_min"), as_float(d_max, "d_max")
    step = as_float(step, "step")
    if not (0.0 < d_min <= d_max):
        raise ConfigurationError(f"need 0 < d_min <= d_max, got [{d_min}, {d_max}]")
    top = d_max + 1e-12
    if d_min < d_max and not (step > 0.0 and 2.0 * step > math.ulp(top)):
        raise ConfigurationError(
            f"step must be positive and move every gap up to d_max = {d_max}, got {step}"
        )
    if d_min < d_max and (n := math.ceil((d_max - d_min) / step) + 1) > MAX_GAPS:
        raise ConfigurationError(f"step {step} gives {n} gaps in [{d_min}, {d_max}], > {MAX_GAPS}")
    ds = [d_min]
    while ds[-1] + step <= top and d_min < d_max:
        ds.append(ds[-1] + step)
    if ds[-1] < d_max - 1e-12:
        ds.append(d_max)
    return ds


def scan(
    d_min: float,
    d_max: float,
    step: float,
    *,
    backend: str = "dp",
    epsilon: float,
    grid: UGrid | None = None,
) -> ScanCurve:
    """Evaluate the Bayes risk on the closed d-range with the given step;
    grid defaults to the backend's (see backend_grid)."""
    ds = d_range(d_min, d_max, step)
    g = grid if grid is not None else backend_grid(backend)
    risk = _risk_fn(backend, epsilon, g)
    points = tuple(ScanPoint(d=d, risk=risk(d)) for d in ds)
    return ScanCurve(backend=backend, epsilon=epsilon, grid=g, points=points)


@dataclass(frozen=True)
class RefineResult:
    d_star: float
    risk_star: float
    boundary: bool
    evaluations: int


def golden_section_max(fn, a: float, b: float, tolerance: float):
    """Golden-section maximization on [a, b]; returns the best point actually
    evaluated, its value and the evaluation count.  It also stops once the
    probes reach the bracket's float resolution."""
    if not (a < b):
        raise ConfigurationError(f"need a < b, got [{a}, {b}]")
    if not tolerance > 0.0:
        raise ConfigurationError(f"tolerance must be positive, got {tolerance}")
    best_x, best_y = None, -math.inf
    evals = 0

    def probe(x):
        nonlocal best_x, best_y, evals
        y = fn(x)
        evals += 1
        if y > best_y:
            best_x, best_y = x, y
        return y

    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    yc, yd = probe(c), probe(d)
    while b - a > tolerance and a < c < d < b:
        if yc >= yd:
            b, d, yd = d, c, yc
            c = b - _INV_PHI * (b - a)
            yc = probe(c)
        else:
            a, c, yc = c, d, yd
            d = a + _INV_PHI * (b - a)
            yd = probe(d)
    return best_x, best_y, evals


def refine(curve: ScanCurve, tolerance: float = 0.01) -> RefineResult:
    """Golden-section refinement of the scan maximum.

    A maximum on the range boundary is flagged and returned unrefined.  The
    returned risk never falls below the scanned maximum because the scan's
    best point stays among the candidates.
    """
    if not curve.points:
        raise ConfigurationError("cannot refine an empty curve")
    if not tolerance > 0.0:
        raise ConfigurationError(f"tolerance must be positive, got {tolerance}")
    i = curve.best_index()
    top = curve.points[i]
    if i == 0 or i == len(curve.points) - 1:
        return RefineResult(d_star=top.d, risk_star=top.risk, boundary=True, evaluations=0)
    fn = _risk_fn(curve.backend, curve.epsilon, curve.grid)
    a, b = curve.points[i - 1].d, curve.points[i + 1].d
    x, y, evals = golden_section_max(fn, a, b, tolerance)
    if top.risk > y:
        x, y = top.d, top.risk
    return RefineResult(d_star=x, risk_star=y, boundary=False, evaluations=evals)


@dataclass(frozen=True)
class SaddleRow:
    d: float
    loss: float
    loss_no_initial: float


@dataclass(frozen=True)
class SaddleReport:
    """Frozen-strategy losses across priors, against the candidate saddle value.

    passed means: within the cutoff (SADDLE_CUTOFF) no loss exceeds
    risk_star + tolerance and the loss at d_star matches risk_star within the
    tolerance (SADDLE_TOLERANCE).  Exceedances beyond the cutoff are listed,
    not failed; their loss_no_initial column shows how much of the excess the
    forced initial stage contributes.

    passed also bounds the multi-atom priors.  The frozen strategy's loss
    under a symmetric prior with atoms (w_i, pi_i) is the linear combination
    sum_i pi_i L0(w_i) + 2*eps*mean_w = sum_i pi_i L(w_i), L and L0 the rows'
    loss and loss_no_initial (the loss profile is linear in the atoms), and
    that prior's Bayes risk is at most it.  So every symmetric prior whose
    atoms are among the gaps within the cutoff has Bayes risk <=
    max_within_cutoff <= risk_star + tolerance: [risk_star,
    max_within_cutoff] brackets the minimax risk over those priors, whatever
    the shape of the Bayes curve between the rows.
    """

    d_star: float
    risk_star: float
    cutoff: float
    tolerance: float
    rows: tuple[SaddleRow, ...]
    max_within_cutoff: float
    equality_gap: float
    passed: bool
    exceedances: tuple[SaddleRow, ...]


def saddle_check(
    d_star: float,
    epsilon: float,
    *,
    grid: UGrid = UGrid(),
    d_values=None,
) -> SaddleReport:
    """Freeze the optimal strategy at d_star and sweep its expected loss
    over two-point priors; see SaddleReport for the pass condition.

    d_values defaults to 0.4, 0.8, ... up to SADDLE_CUTOFF plus 18 and 20;
    d_star is always added, and at least one gap must lie within the cutoff.
    Every prior is validated before the solve at d_star.

    The rows come from one forward sweep of the frozen table's state density
    (strategy_eval.frozen_losses), which serves every gap at once.  The
    d_star row is anchored to the backward sweep: it is evaluate's value,
    which reproduces the solver's own risk, and the forward value there must
    agree with it within ANCHOR_TOLERANCE, or the check raises InternalError.
    """
    if d_values is None:
        d_values = np.concatenate([np.arange(0.4, SADDLE_CUTOFF + 1e-9, 0.4), [18.0, 20.0]])
    ds = sorted(set(float(d) for d in d_values) | {float(d_star)})
    priors = [SymmetricPrior.two_point(d) for d in ds]  # refuses d <= 0, nan and inf
    if not any(d <= SADDLE_CUTOFF + 1e-9 for d in ds):
        raise ConfigurationError(
            f"no gap lies within the saddle cutoff {SADDLE_CUTOFF}: d_star = {d_star}, "
            f"smallest d = {ds[0]}"
        )
    star = ds.index(float(d_star))

    out = solve_invariant(DpConfig(epsilon, priors[star], grid))
    frozen = EvalStrategy.from_table(out.strategy)
    risk_star = out.bayes_risk
    loss, loss_no_initial = frozen_losses(frozen, ds)
    anchor = evaluate(frozen, priors[star])
    drift = abs(loss[star] - anchor.total_loss)
    if not drift <= ANCHOR_TOLERANCE:
        raise InternalError(
            f"forward sweep loss at d_star = {d_star} is {loss[star]}, "
            f"{drift:.3g} from the backward sweep's {anchor.total_loss}"
        )
    loss[star], loss_no_initial[star] = anchor.total_loss, anchor.loss_no_initial
    rows = [
        SaddleRow(d=d, loss=total, loss_no_initial=no_init)
        for d, total, no_init in zip(ds, loss.tolist(), loss_no_initial.tolist())
    ]
    within = [r for r in rows if r.d <= SADDLE_CUTOFF + 1e-9]
    max_within = max(r.loss for r in within)
    at_star = rows[star]
    equality_gap = abs(at_star.loss - risk_star)
    bound = risk_star + SADDLE_TOLERANCE
    passed = max_within <= bound and equality_gap <= SADDLE_TOLERANCE
    exceedances = tuple(r for r in rows if r.d > SADDLE_CUTOFF + 1e-9 and r.loss > bound)
    return SaddleReport(
        d_star=float(d_star),
        risk_star=risk_star,
        cutoff=SADDLE_CUTOFF,
        tolerance=SADDLE_TOLERANCE,
        rows=tuple(rows),
        max_within_cutoff=max_within,
        equality_gap=equality_gap,
        passed=passed,
        exceedances=exceedances,
    )

