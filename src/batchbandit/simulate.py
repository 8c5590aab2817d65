"""Monte-Carlo validation of strategy tables.

Two data models share one lockstep driver: batched Bernoulli processing
(packet income = a binomial count scaled by (D*M)**-0.5, D = p*(1-p)) and
the direct Gaussian bandit (unit-variance packet incomes, mean gap
2*d*N**-0.5).  Common mean shifts cancel in the history statistic
U = (X1*k2 - X2*k1)/(k1 + k2), so neither model centers its incomes.
Losses are normalized so both models estimate the same quantity as
strategy-eval: (D*T)**-0.5 * (T*p_best - total successes), respectively
N**-0.5 * (N*m_best - total income).  Every trial opens, as the model
does, with the first two packets on arm 1 and then arm 2; the strategy
table decides from the third packet on.

Replications run in fixed-size lockstep batches, one spawned SeedSequence
child per batch, so results are reproducible bit for bit per seed and
streams stay independent across batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, InternalError, as_float
from .dp import StrategyTable, _check_memory

# replications per lockstep batch; fixed so a seed pins every draw
BATCH_REPS = 4096


def _check_trial(n_packets: int, d: float, replications: int, seed: int, orientation) -> None:
    if n_packets < 2:
        raise ConfigurationError("need at least two packets")
    d = as_float(d, "d")
    if not (math.isfinite(2.0 * d * d) and d >= 0.0):  # SymmetricPrior's rule
        raise ConfigurationError(f"d must be finite and nonnegative with 2*d^2 finite, got {d}")
    if replications < 1:
        raise ConfigurationError("need at least one replication")
    _check_memory(8.0 * as_float(replications, "replications"), "the replication losses")
    if seed < 0:
        raise ConfigurationError(f"seed must be nonnegative, got {seed}")
    if orientation not in (None, 1, -1):
        raise ConfigurationError("orientation must be None, +1 or -1")


@dataclass(frozen=True)
class BatchTrialConfig:
    """Bernoulli batch-processing trial.

    n_items plays T, batch_size plays M; the success probabilities are
    p +- d*sqrt(D/n_items) with D = p*(1-p).  orientation fixes which arm
    is better (+1: arm 1, -1: arm 2); None draws it per replication with
    probability 1/2, so the loss mean estimates the Bayes loss under the
    symmetric two-point prior.
    """

    n_items: int
    batch_size: int
    p: float
    d: float
    replications: int
    seed: int
    orientation: int | None = None

    def __post_init__(self):
        if self.batch_size < 1 or self.n_items % self.batch_size != 0:
            raise ConfigurationError(
                f"n_items={self.n_items} must be a positive multiple of "
                f"batch_size={self.batch_size}"
            )
        if self.batch_size > np.iinfo(np.int64).max:  # numpy draws int64 binomial counts
            raise ConfigurationError(f"batch_size={self.batch_size} is beyond int64 range")
        _check_trial(self.n_packets, self.d, self.replications, self.seed, self.orientation)
        as_float(self.n_items, "n_items")  # delta divides by it as a float
        if not (0.0 < self.p < 1.0):
            raise ConfigurationError(f"p must lie in (0, 1), got {self.p}")
        for q in (self.p + self.delta, self.p - self.delta):
            if not (0.0 < q < 1.0):
                raise ConfigurationError(
                    f"arm probability {q} leaves (0, 1); shrink d or move p"
                )

    @property
    def n_packets(self) -> int:
        return self.n_items // self.batch_size

    @property
    def D(self) -> float:
        return self.p * (1.0 - self.p)

    @property
    def delta(self) -> float:
        """Half the success-probability gap, d*sqrt(D/n_items)."""
        return self.d * math.sqrt(self.D / self.n_items)


@dataclass(frozen=True)
class TrialResult:
    normalized_loss_mean: float
    standard_error: float
    replications: int


def _batch_sizes(replications: int):
    full, rest = divmod(replications, BATCH_REPS)
    return [BATCH_REPS] * full + ([rest] if rest else [])


def _lockstep(
    strategy: StrategyTable,
    n_packets: int,
    replications: int,
    seed: int,
    orientation: int | None,
    draw,
    loss,
) -> TrialResult:
    """Replication batches driven through the strategy table in lockstep.

    draw(rng, sign) returns (xi, reward) for one packet per replication,
    where sign is +1 where the played arm is the better one and -1 where it
    is the worse; xi feeds the history statistic and reward is summed over
    the horizon.  loss(total_reward) gives the normalized losses.
    """
    if strategy.n_packets != n_packets:
        raise ConfigurationError(
            f"strategy lattice has {strategy.n_packets} packets, the trial has {n_packets}"
        )
    root_n = math.sqrt(n_packets)
    losses = np.empty(replications)
    offset = 0
    sizes = _batch_sizes(replications)
    for n, child in zip(sizes, np.random.SeedSequence(seed).spawn(len(sizes))):
        rng = np.random.default_rng(child)
        if orientation is None:
            v = rng.integers(0, 2, size=n) * 2.0 - 1.0
        else:
            v = np.full(n, float(orientation))
        X1 = np.zeros(n)
        X2 = np.zeros(n)
        k1 = np.zeros(n, dtype=np.int64)  # batches on arm 1; step - k1 on arm 2
        total = np.zeros(n)
        for step in range(n_packets):
            if step < 2:  # turn-by-turn start: arm 1, then arm 2
                on1 = np.full(n, step == 0)
            else:
                u = (X1 * (step - k1) - X2 * k1) / (step * root_n)
                on1 = strategy.diagonal(step)[k1, strategy.grid.nearest_index(u)]
            xi, reward = draw(rng, np.where(on1, v, -v))
            X1 += np.where(on1, xi, 0.0)
            X2 += np.where(on1, 0.0, xi)
            k1 += on1
            total += reward
        losses[offset : offset + n] = loss(total)
        offset += n

    mean = float(np.mean(losses))
    se = float(np.std(losses, ddof=1) / math.sqrt(losses.size)) if losses.size > 1 else 0.0
    if not math.isfinite(mean):
        raise InternalError("simulation produced a non-finite loss mean")
    return TrialResult(normalized_loss_mean=mean, standard_error=se, replications=losses.size)


def simulate_bernoulli(cfg: BatchTrialConfig, strategy: StrategyTable) -> TrialResult:
    """Batched Bernoulli trial driven by a strategy table; see BatchTrialConfig."""
    M = cfg.batch_size
    xi_scale = 1.0 / math.sqrt(cfg.D * M)
    loss_scale = 1.0 / math.sqrt(cfg.D * cfg.n_items)
    p_best = cfg.p + cfg.delta

    def draw(rng, sign):
        counts = rng.binomial(M, cfg.p + sign * cfg.delta)
        return counts * xi_scale, counts

    return _lockstep(
        strategy, cfg.n_packets, cfg.replications, cfg.seed, cfg.orientation, draw,
        lambda successes: loss_scale * (cfg.n_items * p_best - successes),
    )


def simulate_gaussian(
    n_packets: int,
    d: float,
    strategy: StrategyTable,
    replications: int,
    seed: int,
    *,
    orientation: int | None = None,
) -> TrialResult:
    """Direct Gaussian bandit: unit-variance packet incomes with means
    +-d/sqrt(n_packets), same normalization and lockstep driver."""
    _check_trial(n_packets, d, replications, seed, orientation)
    root_n = math.sqrt(n_packets)
    m_gap_half = d / root_n

    def draw(rng, sign):
        xi = rng.normal(sign * m_gap_half, 1.0)
        return xi, xi

    return _lockstep(
        strategy, n_packets, replications, seed, orientation, draw,
        lambda income: (n_packets * m_gap_half - income) / root_n,
    )
