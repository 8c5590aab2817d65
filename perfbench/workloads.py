"""The benchmark workloads: set-up, one pass, and the pass's check.

`minimax_dp` is the headline worst-case search.  `crosscheck` runs, in one
pass, the three pipelines that check it independently: the diffusion-limit
search (`limit_pde`), the Richardson limit from two dp solves (`fine_dp`)
and the Monte-Carlo replay through the CLI (`montecarlo`).

Each pass calls the package through module attributes (`search.scan`, not a
name imported once), so the tracer sees every call.  A pass returns its
answer; `check` compares it with the seed references in references.json and
with the paper's headline numbers, outside the timed region.
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path

from batchbandit import cli, core, dp, search, strategy_eval

REFERENCES = Path(__file__).resolve().parent / "references.json"
# unchanged math must reproduce every deterministic risk this closely
RISK_TOLERANCE = 1e-12


def compare(got, want, where: str = "") -> list[str]:
    """Differences between an answer and its reference, floats within RISK_TOLERANCE."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"]
        return [f for k in want for f in compare(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} does not match {len(want)} reference entries"]
        return [f for i, (g, w) in enumerate(zip(got, want)) for f in compare(g, w, f"{where}[{i}]")]
    if isinstance(want, float):
        if not (isinstance(got, (int, float)) and abs(got - want) <= RISK_TOLERANCE):
            return [f"{where}: {got!r} differs from the reference {want!r}"]
        return []
    return [] if got == want else [f"{where}: {got!r} != reference {want!r}"]


def _near(label: str, value: float, centre: float, tol: float) -> list[str]:
    return [] if abs(value - centre) <= tol else [f"{label} = {value} is not {centre} +- {tol}"]


class Workload:
    """setup(seed, workdir) -> ctx; run(ctx) -> answer; check(ctx, answer, refs).

    An answer carries `work`, the risk evaluations or replications it made,
    and optionally `work_s`, the time they took when that is not the pass.
    """

    name = ""

    def setup(self, seed: int, workdir: Path) -> dict:
        return {"seed": seed, "workdir": workdir}

    def run(self, ctx: dict) -> dict:
        raise NotImplementedError

    def deterministic(self, ctx: dict, answer: dict) -> dict:
        """The part of the answer that references.json pins."""
        raise NotImplementedError

    def sanity(self, ctx: dict, answer: dict, refs: dict) -> list[str]:
        return []

    def check(self, ctx: dict, answer: dict, refs: dict) -> list[str]:
        got = self.deterministic(ctx, answer)
        return compare(got, refs[self.name], self.name) + self.sanity(ctx, answer, refs)


class MinimaxDp(Workload):
    name = "minimax_dp"

    def setup(self, seed, workdir):
        return dict(super().setup(seed, workdir), epsilon=0.02, grid=core.UGrid(),
                    d_min=0.5, d_max=2.5, step=0.25, tolerance=0.01)

    def run(self, ctx):
        curve = search.scan(ctx["d_min"], ctx["d_max"], ctx["step"], backend="dp",
                            epsilon=ctx["epsilon"], grid=ctx["grid"])
        res = search.refine(curve, ctx["tolerance"])
        report = search.saddle_check(res.d_star, ctx["epsilon"], grid=ctx["grid"])
        return {
            "scan": [[p.d, p.risk] for p in curve.points],
            "d_star": res.d_star,
            "risk_star": res.risk_star,
            "boundary": res.boundary,
            "refine_evaluations": res.evaluations,
            "saddle_passed": report.passed,
            "saddle_risk_star": report.risk_star,
            "saddle_losses": [[r.d, r.loss] for r in report.rows],
            # Bayes risks (scan, refine, the saddle's own solve) plus frozen losses
            "work": len(curve.points) + res.evaluations + 1 + len(report.rows),
        }

    def deterministic(self, ctx, answer):
        keys = ("scan", "d_star", "risk_star", "boundary", "saddle_passed",
                "saddle_risk_star", "saddle_losses")
        return {k: answer[k] for k in keys}

    def sanity(self, ctx, answer, refs):
        fails = _near("risk*", answer["risk_star"], 0.65, 0.02)
        fails += _near("d*", answer["d_star"], 1.6, 0.1)
        if not answer["saddle_passed"]:
            fails.append("saddle_check did not pass")
        return fails


class FineDp(Workload):
    name = "fine_dp"

    def setup(self, seed, workdir):
        prior = core.SymmetricPrior.two_point(1.6)
        configs = [dp.DpConfig(eps, prior, core.UGrid()) for eps in (0.01, 0.005)]
        return dict(super().setup(seed, workdir), configs=configs)

    def run(self, ctx):
        coarse, fine = (dp.solve_invariant(c, keep_strategy=False).bayes_risk
                        for c in ctx["configs"])
        return {"risk_0.01": coarse, "risk_0.005": fine,
                "richardson": 2.0 * fine - coarse, "work": 2}

    def deterministic(self, ctx, answer):
        return {k: answer[k] for k in ("risk_0.01", "risk_0.005")}

    def sanity(self, ctx, answer, refs):
        limit = refs["limit_pde"]["risk_star"]
        return _near("Richardson limit", answer["richardson"], limit, 0.005)


class LimitPde(Workload):
    name = "limit_pde"

    def setup(self, seed, workdir):
        # the bracket holds the limit's worst case d ~ 1.57 with few solves
        return dict(super().setup(seed, workdir), epsilon=0.001, grid=core.UGrid(2.3, 0.032),
                    d_min=1.4, d_max=1.8, step=0.2, tolerance=0.25)

    def run(self, ctx):
        curve = search.scan(ctx["d_min"], ctx["d_max"], ctx["step"], backend="pde",
                            epsilon=ctx["epsilon"], grid=ctx["grid"])
        res = search.refine(curve, ctx["tolerance"])
        return {
            "scan": [[p.d, p.risk] for p in curve.points],
            "d_star": res.d_star,
            "risk_star": res.risk_star,
            "boundary": res.boundary,
            "work": len(curve.points) + res.evaluations,
        }

    def deterministic(self, ctx, answer):
        return {k: answer[k] for k in ("scan", "d_star", "risk_star", "boundary")}

    def sanity(self, ctx, answer, refs):
        return _near("pde limit risk*", answer["risk_star"], 0.637, 0.01)


class MonteCarlo(Workload):
    name = "montecarlo"

    epsilon, d, reps = 0.02, 1.63, 100_000

    def setup(self, seed, workdir):
        ctx = super().setup(seed, workdir)
        table_dir = workdir / "strategy"
        table = table_dir / "strategy.csv"
        ctx.update(table_dir=table_dir, export=[
            "export-strategy", "--epsilon", str(self.epsilon), "--d", str(self.d),
            "--out", str(table),
        ], simulate={
            model: ["simulate", "--strategy", str(table), "--t", "5000", "--m", "100",
                    "--p", "0.5", "--d", str(self.d), "--reps", str(self.reps),
                    "--seed", str(seed), "--model", model,
                    "--out", str(workdir / f"{model}.json")]
            for model in ("bernoulli", "gaussian")
        })
        return ctx

    def run(self, ctx):
        shutil.rmtree(ctx["table_dir"], ignore_errors=True)
        ctx["table_dir"].mkdir(parents=True)
        if cli.main(ctx["export"]) != 0:
            raise RuntimeError("export-strategy failed")
        file_bytes = sum(f.stat().st_size for f in ctx["table_dir"].iterdir())
        results, sim_s = {}, 0.0
        for model, argv in ctx["simulate"].items():
            t0 = time.perf_counter()
            if cli.main(argv) != 0:
                raise RuntimeError(f"simulate --model {model} failed")
            sim_s += time.perf_counter() - t0
            summary = json.loads(Path(argv[-1]).read_text())
            results[model] = [summary["normalized_loss_mean"], summary["standard_error"]]
        # replications per second over the simulate invocations, loads included
        return {"mc": results, "file_bytes": file_bytes,
                "work": 2 * self.reps, "work_s": sim_s}

    def frozen_loss(self, ctx) -> float:
        """evaluate() of the solver's own strategy at the simulated d (cached)."""
        if "frozen_loss" not in ctx:
            prior = core.SymmetricPrior.two_point(self.d)
            table = dp.solve_invariant(dp.DpConfig(self.epsilon, prior, core.UGrid())).strategy
            view = strategy_eval.EvalStrategy.from_table(table)
            ctx["frozen_loss"] = strategy_eval.evaluate(view, prior).total_loss
        return ctx["frozen_loss"]

    def deterministic(self, ctx, answer):
        return {"frozen_loss": self.frozen_loss(ctx)}

    def sanity(self, ctx, answer, refs):
        expected = self.frozen_loss(ctx)
        fails = []
        for model, (mean, se) in answer["mc"].items():
            if not (se > 0.0 and abs(mean - expected) <= 4.0 * se):
                fails.append(f"{model} mean {mean} is not within 4 SE ({se}) of {expected}")
        return fails


class CrossCheck(Workload):
    name = "crosscheck"
    parts = (LimitPde(), FineDp(), MonteCarlo())

    def setup(self, seed, workdir):
        return {p.name: p.setup(seed, workdir / p.name) for p in self.parts}

    def run(self, ctx):
        answer = {p.name: p.run(ctx[p.name]) for p in self.parts}
        mc = answer["montecarlo"]
        # throughput is the replay's: replications per second of simulate
        return dict(answer, work=mc["work"], work_s=mc["work_s"], file_bytes=mc["file_bytes"])

    def check(self, ctx, answer, refs):
        return [f for p in self.parts for f in p.check(ctx[p.name], answer[p.name], refs)]


# every pipeline with references, and the workloads the benchmark runs
PIPELINES = (MinimaxDp(), *CrossCheck.parts)
WORKLOADS = {w.name: w for w in (MinimaxDp(), CrossCheck())}


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())
