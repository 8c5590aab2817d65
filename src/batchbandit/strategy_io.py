"""Strategy-table persistence.

A table is a CSV `k1,k2,u_index,action`, action being the arm played (1 or
2), covering every decision state (2 <= k1 + k2 <= n_packets - 1, every
grid index) plus a JSON sidecar <name>.meta.json recording epsilon, the
grid, the prior the table was solved under, the tie-break rule and a
format version.  CSV keeps the tables human-diffable; the default lattice
is about a million short rows, written state by state in sweep order
through a temp file and rename, so a failed run leaves no partial output.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .core import ConfigurationError, SymmetricPrior, UGrid, packet_count
from .dp import StrategyTable

STRATEGY_FORMAT_VERSION = 1
_HEADER = "k1,k2,u_index,action"


class StrategyFormatError(ConfigurationError):
    """Malformed strategy file; the message carries line/field diagnostics."""


def atomic_write(path: Path, write_fn) -> None:
    """write_fn(tmp) fills a temp file next to path, which then replaces path."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def _meta_path(path: Path) -> Path:
    return path.with_suffix(".meta.json")


def save_strategy(table: StrategyTable, path, prior: SymmetricPrior) -> None:
    """Write the CSV table and its .meta.json sidecar atomically; the sidecar
    records the prior the table was solved under."""
    path = Path(path)
    P, n_u = table.n_packets, table.grid.n_points
    meta = {
        "format_version": STRATEGY_FORMAT_VERSION,
        "epsilon": table.epsilon,
        "n_packets": P,
        "grid": {"u_max": table.grid.u_max, "du": table.grid.du, "n_points": n_u},
        "prior": {
            "atoms": [[w, p] for w, p in prior.atoms],
            "c": prior.c if math.isfinite(prior.c) else "inf",
        },
        "tie_break": "prefer-action-1",
        "initial_stage": "turn-by-turn-arm-1-then-2",
    }

    tails = [np.array([f"{i},{a}" for i in range(n_u)]) for a in (2, 1)]  # "u_index,action"

    def write_rows(tmp: Path) -> None:
        with open(tmp, "w") as fh:
            fh.write(_HEADER + "\n")
            for K in range(2, P):
                for k1 in range(K + 1):
                    prefix = f"{k1},{K - k1},"
                    row = np.where(table.arm1[k1, K - k1], tails[1], tails[0]).tolist()
                    fh.write(prefix + ("\n" + prefix).join(row) + "\n")

    atomic_write(path, write_rows)
    atomic_write(
        _meta_path(path), lambda tmp: tmp.write_text(json.dumps(meta, indent=2) + "\n")
    )


def _parse_rows_with_diagnostics(path: Path) -> np.ndarray:
    """Line-by-line fallback naming the first bad line and field past the header."""
    rows = []
    with open(path) as fh:
        next(fh)
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 4:
                raise StrategyFormatError(
                    f"{path}: line {lineno}: expected 4 fields, got {len(fields)}"
                )
            parsed = []
            for j, tok in enumerate(fields, start=1):
                try:
                    parsed.append(int(tok))
                except ValueError:
                    raise StrategyFormatError(
                        f"{path}: line {lineno}: field {j} is not an integer: {tok!r}"
                    ) from None
            rows.append(parsed)
    return np.array(rows, dtype=np.int64).reshape(len(rows), 4)


def _load_meta(path: Path) -> dict:
    meta_path = _meta_path(path)
    if not meta_path.exists():
        raise StrategyFormatError(f"missing metadata sidecar {meta_path}")
    try:
        meta = json.loads(meta_path.read_text())
    except json.JSONDecodeError as exc:
        raise StrategyFormatError(f"{meta_path}: invalid JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise StrategyFormatError(f"{meta_path}: the sidecar must be a JSON object")
    if meta.get("format_version") != STRATEGY_FORMAT_VERSION:
        raise StrategyFormatError(
            f"{meta_path}: format_version {meta.get('format_version')!r} is not "
            f"{STRATEGY_FORMAT_VERSION}"
        )
    for key in ("epsilon", "n_packets", "grid"):
        if key not in meta:
            raise StrategyFormatError(f"{meta_path}: missing key {key!r}")
    return meta


def load_strategy(path) -> StrategyTable:
    """Read a CSV table written by save_strategy, validating the full lattice."""
    path = Path(path)
    if not path.exists():
        raise StrategyFormatError(f"no such strategy file: {path}")
    meta = _load_meta(path)
    try:
        grid = UGrid(u_max=float(meta["grid"]["u_max"]), du=float(meta["grid"]["du"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise StrategyFormatError(f"{_meta_path(path)}: bad grid spec: {exc}") from None
    try:
        eps, P = float(meta["epsilon"]), int(meta["n_packets"])
        n = packet_count(eps)
    except (ConfigurationError, OverflowError, TypeError, ValueError) as exc:
        raise StrategyFormatError(f"{_meta_path(path)}: {exc}") from None
    if n != P:
        raise StrategyFormatError(
            f"{_meta_path(path)}: epsilon {eps} does not describe {P} packets"
        )
    n_u = grid.n_points
    if meta["grid"].get("n_points") not in (None, n_u):
        raise StrategyFormatError(
            f"{_meta_path(path)}: n_points {meta['grid']['n_points']} does not match "
            f"the reconstructed grid ({n_u})"
        )

    with open(path) as fh:
        first = fh.readline().strip()
        has_data = any(line.strip() for line in fh)
    if first != _HEADER:
        raise StrategyFormatError(f"{path}: line 1: expected header {_HEADER!r}, got {first!r}")
    rows = np.empty((0, 4), dtype=np.int64)
    if has_data:
        try:
            rows = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
        except ValueError:
            rows = _parse_rows_with_diagnostics(path)
    if rows.shape[1] != 4:
        raise StrategyFormatError(f"{path}: expected 4 columns, got {rows.shape[1]}")

    k1, k2, iu, act = rows.T
    K = k1 + k2
    for name, bad in (
        ("negative k1/k2", (k1 < 0) | (k2 < 0)),
        ("k1 + k2 outside [2, n_packets - 1]", (K < 2) | (K > P - 1)),
        ("u_index outside the grid", (iu < 0) | (iu >= n_u)),
        ("action not in {1, 2}", (act != 1) & (act != 2)),
    ):
        if bad.any():
            lineno = int(np.argmax(bad)) + 2
            raise StrategyFormatError(f"{path}: line {lineno}: {name}")
    # The decision states number n_u * (3 + 4 + ... + P) and every row names one by now,
    # so surplus rows repeat one; a short table is refused before anything of lattice size.
    expected = n_u * (P * (P + 1) // 2 - 3)
    if k1.size < expected:
        raise StrategyFormatError(
            f"{path}: table has {k1.size} rows, the lattice needs {expected}"
        )
    lin = (k1 * (P + 1) + k2) * n_u + iu
    repeated = np.bincount(lin) > 1
    if repeated.any():
        dup = np.flatnonzero(lin == np.argmax(repeated))[1]
        raise StrategyFormatError(f"{path}: line {int(dup) + 2}: duplicate state row")

    arm1 = np.zeros((P + 1, P + 1, n_u), dtype=bool)
    arm1[k1, k2, iu] = act == 1
    return StrategyTable(epsilon=eps, grid=grid, arm1=arm1)
