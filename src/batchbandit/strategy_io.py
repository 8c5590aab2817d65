"""Strategy-table persistence.

A table is a CSV `k1,k2,u_index,action` (action: the arm played, 1 or 2)
plus a JSON sidecar <name>.meta.json: epsilon, the grid, the prior, the
tie-break rule and a format version.  Format v1 is the header, then
`_encoder`'s lines for each decision state in `_states` order.  The loader
decodes each state's actions and encodes them again, so it loads exactly
the writer's bytes and names the first line that differs.  Writes are atomic.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .core import ConfigurationError, SymmetricPrior, UGrid, packet_count
from .dp import StrategyTable, _states

STRATEGY_FORMAT_VERSION = 1
_HEADER = b"k1,k2,u_index,action\n"


class StrategyFormatError(ConfigurationError):
    """Malformed strategy file or sidecar; the message names the file and the CSV line."""


def _read_json(path: Path, what: str, error=ConfigurationError):
    """The JSON document in the file at path, for both JSON inputs: the
    sidecar and the CLI's --prior-file.  A file that cannot be opened,
    decoded or parsed raises error naming it."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # JSON and decode errors are ValueErrors
        raise error(f"{path}: unreadable {what} file: {type(exc).__name__}: {exc}") from None


def _json_number(value, integer: bool = False) -> bool:
    """Whether value is a JSON number as json.loads returns one: an int (or,
    unless integer, a float), never a bool."""
    return isinstance(value, int if integer else (int, float)) and not isinstance(value, bool)


def atomic_write(path: Path, write_fn) -> None:
    """write_fn(tmp) fills a temp file next to path, which then replaces path;
    a path that cannot be written is a ConfigurationError naming it."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc}") from None
    finally:
        if tmp.exists():
            tmp.unlink()


def _encoder(n_u: int):
    """encode(k1, k2, row): the bytes of state (k1, k2), one line
    `k1,k2,u_index,action` per grid index, row being the state's arm-1 mask."""
    tails = [np.array([f"{i},{a}" for i in range(n_u)]) for a in (1, 2)]  # "u_index,action"

    def encode(k1: int, k2: int, row: np.ndarray) -> bytes:
        prefix = f"{k1},{k2},"
        return (prefix + ("\n" + prefix).join(np.where(row, *tails).tolist()) + "\n").encode()

    return encode


def save_strategy(table: StrategyTable, path, prior: SymmetricPrior) -> None:
    """Write the CSV table and its .meta.json sidecar, which records the prior the
    table was solved under, atomically; a sidecar that fails leaves no CSV."""
    path = Path(path)
    P, n_u = table.n_packets, table.grid.n_points
    meta = {
        "format_version": STRATEGY_FORMAT_VERSION,
        "epsilon": table.epsilon,
        "n_packets": P,
        "grid": {"u_max": table.grid.u_max, "du": table.grid.du, "n_points": n_u},
        "prior": {"atoms": [[w, p] for w, p in prior.atoms]},
        "tie_break": "prefer-action-1",
        "initial_stage": "turn-by-turn-arm-1-then-2",
    }
    meta_text = json.dumps(meta, indent=2) + "\n"
    encode = _encoder(n_u)

    def write_rows(tmp: Path) -> None:
        with open(tmp, "wb") as fh:
            fh.write(_HEADER)
            for (k1, k2), row in zip(_states(P), table.arm1):  # arm1's rows are in _states order
                fh.write(encode(k1, k2, row))
        atomic_write(path.with_suffix(".meta.json"), lambda t: t.write_text(meta_text))

    atomic_write(path, write_rows)


def _load_meta(meta_path: Path) -> tuple[float, int, UGrid]:
    """epsilon, n_packets and grid of a sidecar, each checked by JSON type and value."""
    meta = _read_json(meta_path, "metadata sidecar", StrategyFormatError)
    if not isinstance(meta, dict):
        raise StrategyFormatError(f"{meta_path}: the sidecar must be a JSON object")
    if (version := meta.get("format_version")) != STRATEGY_FORMAT_VERSION:
        raise StrategyFormatError(f"{meta_path}: format_version {version!r} is not supported")
    spec = meta["grid"] if isinstance(meta.get("grid"), dict) else {}
    values = {"n_points": 0, **spec, **{k: meta.get(k) for k in ("epsilon", "n_packets")}}
    for key in ("epsilon", "n_packets", "u_max", "du", "n_points"):  # n_points is optional
        integer, value = key.startswith("n_"), values.get(key)
        if not _json_number(value, integer):
            kind = "an integer" if integer else "a number"
            raise StrategyFormatError(f"{meta_path}: {key} must be {kind}, got {value!r}")
    try:
        grid = UGrid(u_max=float(values["u_max"]), du=float(values["du"]))
        eps, P = float(values["epsilon"]), values["n_packets"]
        n = packet_count(eps)
    except (ConfigurationError, OverflowError) as exc:
        raise StrategyFormatError(f"{meta_path}: {exc}") from None
    if n != P:
        raise StrategyFormatError(f"{meta_path}: epsilon {eps} does not describe {P} packets")
    if (n_points := spec.get("n_points", grid.n_points)) != grid.n_points:
        raise StrategyFormatError(f"{meta_path}: n_points {n_points}, grid has {grid.n_points}")
    return eps, P, grid


def _text(raw: bytes) -> str:
    return raw.split(b"\n", 1)[0].decode(errors="backslashreplace")


def _mismatch(path: Path, line: int, got: bytes, want: bytes) -> StrategyFormatError:
    """The error for a block `got`, starting on `line`, that differs from its
    encoding `want`: the line of the first differing byte and its two texts."""
    i = len(os.path.commonprefix([got, want]))
    start = want.rfind(b"\n", 0, i) + 1
    line += want.count(b"\n", 0, start)
    stem = want[start : want.index(b"\n", start) - 1].decode()  # the line without its action
    found = f"got {_text(got[start:])!r}" if got[i:] else "the file ends; the lattice needs it"
    return StrategyFormatError(f"{path}: line {line}: expected '{stem}1' or '{stem}2', {found}")


def load_strategy(path) -> StrategyTable:
    """Read a CSV table written by save_strategy: exactly the bytes the writer
    gives its decision states, each action 1 or 2, and nothing after them."""
    path = Path(path)
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        raise StrategyFormatError(f"no such strategy file: {path}") from None
    except OSError as exc:
        raise StrategyFormatError(f"{path}: unreadable strategy file: {exc}") from None
    with fh:
        eps, P, grid = _load_meta(path.with_suffix(".meta.json"))
        n_u = grid.n_points
        encode = _encoder(n_u)
        layouts = {}  # prefix length -> block length and action offsets, read off the encoder
        rows = []
        if (head := fh.readline(len(_HEADER))) != _HEADER:
            raise StrategyFormatError(f"{path}: line 1: expected header {_HEADER!r}, got {head!r}")
        for k1, k2 in _states(P):  # lazily: a short file is refused where it ends
            if (n := len(f"{k1},{k2},")) not in layouts:
                blank = np.frombuffer(encode(k1, k2, np.zeros(n_u, dtype=bool)), np.uint8)
                layouts[n] = (blank.size, np.flatnonzero(blank == ord("\n")) - 1)
            size, at = layouts[n]
            got = fh.read(size)
            row = np.frombuffer(got.ljust(size), np.uint8)[at] == ord("1")
            if got != (want := encode(k1, k2, row)):
                raise _mismatch(path, 2 + n_u * len(rows), got, want)
            rows.append(row)
        if extra := fh.readline(80):
            raise StrategyFormatError(
                f"{path}: line {2 + n_u * len(rows)}: the lattice needs no more rows, "
                f"got {_text(extra)!r}"
            )
    return StrategyTable(epsilon=eps, grid=grid, arm1=np.array(rows, dtype=bool).reshape(-1, n_u))
