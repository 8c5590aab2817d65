"""The shared backward sweep: dp, pde and evaluate risks pinned on small
lattices to the values of the separately written sweeps it replaced."""

import pytest

from batchbandit.core import SymmetricPrior, UGrid
from batchbandit.dp import DpConfig, solve_invariant
from batchbandit.pde import PdeConfig, solve_pde
from batchbandit.strategy_eval import EvalStrategy, evaluate

TWO_ATOM = SymmetricPrior(((0.7, 0.4), (1.8, 0.6)))
GRID = UGrid(3.0, 0.02)


def test_risks_are_pinned():
    out = solve_invariant(DpConfig(0.1, SymmetricPrior.two_point(1.6), GRID))
    assert out.bayes_risk == pytest.approx(0.7232203085292059, abs=1e-12)
    dp2 = solve_invariant(DpConfig(0.125, TWO_ATOM, GRID), keep_strategy=False)
    assert dp2.bayes_risk == pytest.approx(0.6713307706234124, abs=1e-12)

    for prior, want in ((SymmetricPrior.two_point(1.6), 0.6452025311489752),
                        (TWO_ATOM, 0.5802909510520665)):
        sol = solve_pde(PdeConfig(0.01, prior, UGrid(2.3, 0.1)))
        assert sol.limit_risk == pytest.approx(want, abs=1e-12)

    frozen = EvalStrategy.from_table(out.strategy)
    for d, want in ((0.8, 0.5489550501210245), (4.0, 0.8780110953028278)):
        ev = evaluate(frozen, SymmetricPrior.two_point(d))
        assert ev.total_loss == pytest.approx(want, abs=1e-12)

