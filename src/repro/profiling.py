"""Per-phase wall-time accounting for campaign runs.

The campaign pipeline has five cost centres — scenario **sampling**,
mask/stage **compile** work (slicing, segment-plan builds), the dense
**gemm** path (matmul + bias + activation), the fault **corrections**
(mask channels and synapse scatter), and the error **reduction**.  A
run's :class:`PhaseProfile` is its observer's ``obs.profile``
(:class:`~repro.obs.RunObserver`); the block driver attaches it to the
:class:`~repro.faults.masks.MaskCampaignEngine` (``engine.profile``),
which accumulates wall time into those buckets as chunks stream
through.  The CLI's ``--profile`` flag prints the resulting table so a
future slow path is diagnosable without external profilers.

Under ``--workers N`` each fork-once worker's per-block observer
charges its own profile, and the block driver folds the seconds home
with :meth:`PhaseProfile.add_dict` in block submission order, so the
table reports the whole run's phase costs (summed across workers,
hence exceeding wall time under real parallelism).
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Tuple

__all__ = ["PHASES", "PhaseProfile"]

#: The fixed cost centres, in pipeline order.
PHASES: Tuple[str, ...] = (
    "sampling", "compile", "gemm", "corrections", "reduction"
)


class PhaseProfile:
    """Accumulates per-phase wall time (seconds) across a campaign.

    One instance spans a whole run — chunk loops call :meth:`add`
    repeatedly and the buckets sum.  ``scenarios`` counts evaluated
    scenarios so :meth:`report` can show end-to-end throughput.
    """

    __slots__ = ("seconds", "scenarios")

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {p: 0.0 for p in PHASES}
        self.scenarios: int = 0

    def add(self, phase: str, dt: float) -> None:
        if phase not in self.seconds:
            raise ValueError(f"unknown phase {phase!r} (expected {PHASES})")
        self.seconds[phase] += dt

    def timer(self):
        """A tick closure: ``tick(phase)`` charges the time since the
        previous tick (or since creation) to ``phase``."""
        last = time.perf_counter()

        def tick(phase: str) -> None:
            nonlocal last
            now = time.perf_counter()
            self.add(phase, now - last)
            last = now

        return tick

    def add_dict(self, payload: Mapping) -> None:
        """Fold an :meth:`as_dict` payload in — the worker-merge path.

        Called in block submission order by the block driver, so the
        folded totals are deterministic for a fixed block layout (the
        per-phase values themselves are wall-time measurements).
        """
        for phase in PHASES:
            if phase in payload:
                self.add(phase, float(payload[phase]))
        self.scenarios += int(payload.get("scenarios", 0))

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    def as_dict(self) -> Dict[str, float]:
        """JSON-friendly payload: per-phase seconds plus totals."""
        out = {p: self.seconds[p] for p in PHASES}
        out["total"] = self.total
        out["scenarios"] = self.scenarios
        return out

    def rows(self) -> List[Tuple[str, float, float]]:
        """``(phase, seconds, share)`` rows in pipeline order."""
        total = self.total
        return [
            (p, self.seconds[p], self.seconds[p] / total if total else 0.0)
            for p in PHASES
        ]

    def report(self) -> str:
        """The ``--profile`` table: per-phase wall time and shares."""
        lines = ["phase        seconds   share"]
        for phase, seconds, share in self.rows():
            lines.append(f"{phase:<12} {seconds:>8.4f}  {share:>5.1%}")
        lines.append(f"{'total':<12} {self.total:>8.4f}")
        if self.scenarios and self.total > 0:
            lines.append(
                f"throughput   {self.scenarios / self.total:>,.0f} scenarios/s"
            )
        return "\n".join(lines)
