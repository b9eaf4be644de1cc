"""Span tracing from outside the program.

``install`` wraps the public functions of each ``qpcmv`` layer at every
loaded ``qpcmv`` module name they are bound to (the defining module,
``cli``, ``pipeline`` and any module that imports them by name), so calls
made by the CLI, by the pipeline and between layers all open a span.
Spans and counts stay in memory; the caller writes them out when a pass
ends.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    pass_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans (name, start, end, parent, pass id) plus counts at the same
    boundaries.  Single-threaded: the open-span stack gives the parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self.sums: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self.pass_id = 0
        self._stack: list[int] = []
        self._next_id = 0

    def begin_pass(self, pass_id: int):
        self.spans, self._stack = [], []
        self.sums, self.maxima = defaultdict(float), {}
        self.pass_id = pass_id

    def open(self, name: str) -> Span:
        span = Span(self._next_id, name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else None, self.pass_id)
        self._next_id += 1
        self._stack.append(span.id)
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def add(self, name: str, value: float):
        self.sums[name] += value

    def peak(self, name: str, value: float):
        if name not in self.maxima or value > self.maxima[name]:
            self.maxima[name] = float(value)

    def records(self) -> list[dict]:
        return [asdict(s) for s in sorted(self.spans, key=lambda s: s.start)]


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its child spans.

    The tracer is single-threaded and stack-based, so children never
    overlap and always lie inside their parent.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    return {s.id: s.duration - child_time[s.id] for s in spans}


# ---------------------------------------------------------------------------
# Computed counts (labelled computed: derived from arguments, not observed)
# ---------------------------------------------------------------------------


def boundary_offset_count(dim: int, grid: int) -> int:
    """Size of ``sampling._boundary_offsets`` plus the centre offset."""
    if dim == 1:
        return 3
    return (4 * grid if grid > 1 else 4) + 1


def verify_ball_pair_checks(rotation: bool, dim: int, q: int, grid: int) -> int:
    """Distance evaluations ``verify_ball`` makes when it returns True.

    Rotation: every offset difference at each index gap 1..5q-1, then at
    the 25 tube-diameter shifts.  Skew-shift: every sample pair of T^i B and
    T^j B for 1 <= i < j <= 5q, then every pair inside each of the q tubes.
    """
    k = boundary_offset_count(dim, grid)
    if rotation:
        return (5 * q - 1 + 25) * k * k
    n = 5 * q
    return n * (n - 1) // 2 * k * k + q * (5 * k) * (5 * k - 1) // 2


def min_max_evals(batch: int, blocks: int, grid: int, rounds: int) -> int:
    """Quadratic-form evaluations of ``min_max_over_unit_vectors``."""
    return batch * blocks * grid * grid * rounds


def cmv_dense_bytes(n: int) -> int:
    """Bytes of the three dense complex N x N arrays a ``CMVOperator`` holds
    (matrix, factor_left, factor_right)."""
    return 3 * 16 * n * n


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


def _counters(qp):
    """(owner, attribute, span name, counter) per traced function.  A
    callable span name and the counters see the bound arguments; counters
    also see the result."""
    Rotation = qp.dynamics.Rotation

    def score(tr, a, r):
        tr.add("frequency.badly_approximable_score.q_scanned",
               r.argmin_q if r.min_score == 0 else a["q_max"])

    def repetition(tr, a, r):
        tr.add("dynamics.find_even_repetition.calls", 1)
        if r is not None:
            tr.peak("dynamics.find_even_repetition.certificate_q", r.q)
            tr.peak("dynamics.find_even_repetition.certificate_window", r.window)

    def verify(tr, a, r):
        tr.add("sampling.verify_ball.pair_checks", verify_ball_pair_checks(
            isinstance(a["system"], Rotation), a["center"].dim, a["q"], a["grid"]))

    def window(tr, a, r):
        tr.add("sampling.verblunsky_window.coefficients",
               a["n_max"] - a["n_min"] + 1)

    def evidence(tr, a, r):
        vals = np.array([[x.c, x.norm_forward, x.norm_double, x.norm_backward]
                         for x in r.rows])
        tr.add("transfer.evidence.rows", len(r.rows))
        tr.add("transfer.evidence.nonfinite_rows",
               int((~np.isfinite(vals)).any(axis=1).sum()))

    def minmax(tr, a, r):
        mats = np.asarray(a["mats"])
        batch = 1 if mats.ndim == 3 else mats.shape[0]
        tr.add("transfer.min_max_over_unit_vectors.evals",
               min_max_evals(batch, mats.shape[-3], a["grid"], a["rounds"]))

    def assemble(tr, a, r):
        tr.peak("cmv.dense_bytes", cmv_dense_bytes(r.size))
        tr.peak("cmv.assemble.unitarity_defect", r.unitarity_defect)

    def spectrum(tr, a, r):
        tr.peak("cmv.spectrum.max_residual", float(r.residuals.max()))

    def profile(tr, a, r):
        tr.add("cmv.eigenvector_profile.calls", 1)

    def dump(tr, a, r):
        tr.add("cmv.dump_triplets.entries", int(np.count_nonzero(a["self"].matrix)))

    def ball_name(a):
        kind = "rotation" if isinstance(a["system"], Rotation) else "skew"
        return f"sampling.ball_radius.{kind}"

    def main_name(a):
        return f"cli.main.{a['argv'][0]}"

    return [
        (qp.frequency, "parse_frequency", "frequency.parse_frequency", None),
        (qp.frequency, "badly_approximable_score",
         "frequency.badly_approximable_score", score),
        (qp.dynamics, "find_even_repetition", "dynamics.find_even_repetition",
         repetition),
        (qp.sampling, "ball_radius", ball_name, None),
        (qp.sampling, "verify_ball", "sampling.verify_ball", verify),
        (qp.sampling, "tube_function", "sampling.tube_function", None),
        (qp.sampling, "verblunsky_window", "sampling.verblunsky_window", window),
        (qp.transfer, "no_point_spectrum_evidence",
         "transfer.no_point_spectrum_evidence", evidence),
        (qp.transfer, "block_product_grid", "transfer.block_product_grid", None),
        (qp.transfer, "min_max_over_unit_vectors",
         "transfer.min_max_over_unit_vectors", minmax),
        (qp.transfer, "certify_gordon", "transfer.certify_gordon", None),
        (qp.transfer, "validate_three_step_lipschitz",
         "transfer.validate_three_step_lipschitz", None),
        (qp.cmv, "assemble", "cmv.assemble", assemble),
        (qp.cmv, "spectrum", "cmv.spectrum", spectrum),
        (qp.cmv, "eigenvector_profile", "cmv.eigenvector_profile", profile),
        (qp.cmv.CMVOperator, "dump_triplets", "cmv.dump_triplets", dump),
        (qp.pipeline, "run", "pipeline.run", None),
        (qp.cli, "main", main_name, None),
    ]


def _wrap(tracer: Tracer, fn, name, counter: Optional[Callable]):
    needs_args = counter is not None or callable(name)
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = None
        if needs_args:
            ba = sig.bind(*args, **kwargs)
            ba.apply_defaults()
            bound = ba.arguments
        span = tracer.open(name(bound) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if counter is not None:
            counter(tracer, bound, result)
        return result

    return wrapper


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced function; returns a function that undoes it."""
    import qpcmv
    import qpcmv.cli
    import qpcmv.pipeline

    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "qpcmv" or n.startswith("qpcmv."))]
    undo = []
    for owner, attr, name, counter in _counters(qpcmv):
        orig = owner.__dict__[attr]
        wrapped = _wrap(tracer, orig, name, counter)
        for holder in (owner, *modules):
            if holder.__dict__.get(attr) is orig:
                setattr(holder, attr, wrapped)
                undo.append((holder, attr, orig))

    def restore():
        for holder, attr, orig in reversed(undo):
            setattr(holder, attr, orig)

    return restore


# ---------------------------------------------------------------------------
# Per-pass layer metrics
# ---------------------------------------------------------------------------

def pass_metrics(tracer: Tracer) -> dict[str, float]:
    """Layer metrics of one traced pass: summed span time per name, self
    time of ``pipeline.run`` and of ``cli.main`` per subcommand, counts."""
    out: dict[str, float] = defaultdict(float)
    selfs = self_times(tracer.spans)
    for s in tracer.spans:
        if s.name.startswith("cli.main."):
            out[f"cli.main.self_s.{s.name[len('cli.main.'):]}"] += selfs[s.id]
            continue
        out[f"{s.name}.s"] += s.duration
        if s.name == "pipeline.run":
            out["pipeline.run.self_s"] += selfs[s.id]
    out.update(tracer.sums)
    out.update(tracer.maxima)
    rows = out.get("transfer.evidence.rows", 0.0)
    if rows:
        out["transfer.evidence.finite_ratio"] = (
            rows - out.get("transfer.evidence.nonfinite_rows", 0.0)) / rows
    return dict(out)
