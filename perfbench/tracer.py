"""Call spans around journalrank's public functions, recorded from outside the package.

The tracer replaces each function in ``WRAPPED`` at its module attribute,
for example ``journalrank.spectral.stationary``. Calls inside the package
go through those attributes (``indicators`` calls ``spectral.stationary``,
which calls ``core.structure``), so spans nest as the real calls do and no
file under ``src/`` is edited. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import time

import numpy as np

WRAPPED = (
    ("cli", "main"),
    ("dataio", "read_journals"),
    ("dataio", "read_matrix"),
    ("core", "validate"),
    ("core", "structure"),
    ("core", "drop_journal"),
    ("spectral", "reference_shares"),
    ("spectral", "stationary"),
    ("indicators", "compute"),
    ("analysis", "correlation_table"),
    ("analysis", "top_k"),
    ("properties", "leave_one_out"),
)
NAMES = tuple(f"{module}.{function}" for module, function in WRAPPED)
STATIONARY = "spectral.stationary"


def _digest(array: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(array).tobytes(), digest_size=12).hexdigest()


def _solve_key(bound: dict) -> tuple:
    """(instance, alpha, teleport) identity of one ``stationary`` call.

    The instance is fingerprinted by the column sums of every 7th row of
    the shares, which separates every pair of instances the workloads
    build. At alpha = 1 the teleport does not enter the fixed point, so it
    is left out of the key: IPP, AI(1) and WPR(1, 0) solve the same vector.
    """
    shares = np.asarray(bound["shares"], dtype=float)
    alpha = float(bound["alpha"])
    teleport = None if alpha == 1.0 else _digest(np.asarray(bound["teleport"], dtype=float))
    return (shares.shape[0], _digest(shares[::7].sum(axis=0)), alpha, teleport)


class Tracer:
    """Installs the wrappers and keeps the spans and solve records of one process."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.spans: list[dict] = []
        self.solves: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._originals: list[tuple] = []

    def install(self) -> None:
        for (module_name, function_name), name in zip(WRAPPED, NAMES):
            try:
                module = importlib.import_module(f"journalrank.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            function = getattr(module, function_name, None)
            if not callable(function):
                self.absent.append(name)
                continue
            self._originals.append((module, function_name, function))
            setattr(module, function_name, self._wrap(name, function))

    def uninstall(self) -> None:
        for module, function_name, function in reversed(self._originals):
            setattr(module, function_name, function)
        self._originals.clear()

    def _wrap(self, name: str, function):
        tracer = self
        signature = inspect.signature(function) if name == STATIONARY else None

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return function(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            # frame: [span index, seconds covered by children and tracer bookkeeping]
            frame = [len(tracer.spans), 0.0]
            tracer.spans.append(None)
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[frame[0]] = {
                    "name": name,
                    "op": tracer.op,
                    "parent": None if parent is None else parent[0],
                    "start": start,
                    "end": end,
                    "self": end - start - frame[1],
                }
                if parent is not None:
                    parent[1] += end - start
            if signature is not None:
                tracer._record_solve(signature, args, kwargs, result, parent)
            return result

        return wrapper

    def _record_solve(self, signature, args, kwargs, result, parent) -> None:
        started = time.perf_counter()
        bound = signature.bind(*args, **kwargs).arguments
        shares = np.asarray(bound["shares"])
        self.solves.append(
            {
                "op": self.op,
                "key": list(_solve_key(bound)),
                "iterations": int(result[1].iterations),
                "shares_bytes": int(shares.nbytes),
            }
        )
        if parent is not None:
            # Fingerprinting is the tracer's own work, not the caller's.
            parent[1] += time.perf_counter() - started

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "solves": self.solves, "absent": self.absent}, handle)

    def merge(self, path, op: int) -> None:
        """Add the spans a traced child process wrote, tagged with ``op``."""
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        offset = len(self.spans)
        for span in data["spans"]:
            span["op"] = op
            if span["parent"] is not None:
                span["parent"] += offset
            self.spans.append(span)
        for solve in data["solves"]:
            solve["op"] = op
            self.solves.append(solve)
        self.absent = sorted(set(self.absent) | set(data["absent"]))


def layer_metrics(tracer: Tracer, ops: int, matrix_csv_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-op aggregates of the recorded spans: name -> (value, unit)."""
    calls = dict.fromkeys(NAMES, 0)
    total = dict.fromkeys(NAMES, 0.0)
    own = dict.fromkeys(NAMES, 0.0)
    for span in tracer.spans:
        calls[span["name"]] += 1
        total[span["name"]] += span["end"] - span["start"]
        own[span["name"]] += span["self"]
    metrics: dict[str, tuple[float, str]] = {}
    for name in NAMES:
        metrics[f"{name}.calls"] = (calls[name] / ops, "calls/op")
        metrics[f"{name}.total_s"] = (total[name] / ops, "s/op")
        metrics[f"{name}.self_s"] = (own[name] / ops, "s/op")
    iterations = sum(solve["iterations"] for solve in tracer.solves)
    matvec_bytes = sum(solve["iterations"] * solve["shares_bytes"] for solve in tracer.solves)
    distinct = len({tuple(solve["key"]) for solve in tracer.solves})
    metrics[f"{STATIONARY}.iterations"] = (iterations / ops, "iter/op")
    metrics[f"{STATIONARY}.matvec_bytes"] = (matvec_bytes / ops, "B/op")
    metrics[f"{STATIONARY}.distinct_ratio"] = (
        distinct / len(tracer.solves) if tracer.solves else 0.0,
        "ratio",
    )
    read_s = total["dataio.read_matrix"]
    read_bytes = calls["dataio.read_matrix"] * matrix_csv_bytes
    metrics["dataio.read_matrix.mb_per_s"] = (read_bytes / read_s / 1e6 if read_s > 0 else 0.0, "MB/s")
    return metrics
