"""Scoring one search point: point → architecture/options → objectives.

A point is a flat dict over the search-space dimensions.  The
:class:`PointEvaluator` owns the translation into compilable form —
an :class:`~repro.exec.jobs.EvaluateJob` carrying a concrete
:class:`~repro.arch.config.ArchitectureConfig` (the PE budget is the
model's crossbar-dependent minimum plus the point's ``extra_pes``) and
:class:`~repro.core.pipeline.ScheduleOptions` — plus the fingerprint
the run store dedups on and the conversion of raw compile results
into journallable :class:`EvaluationResult`s.

Two fidelities exist:

* ``full`` — compile with the point's own options, then score latency,
  energy (:func:`repro.sim.energy.estimate_energy`) and utilization;
* ``proxy`` — compile with ``order_mode='static'`` (the vectorized
  static engine, roughly two orders of magnitude cheaper than the
  dynamic list scheduler) and score latency only.  Successive halving
  screens with proxies and promotes survivors to full evaluations;
  every pipeline stage up to scheduling is shared through the
  compilation cache, so a promoted point pays only the schedule pass
  twice.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Optional

from ..arch.config import ArchitectureConfig
from ..arch.presets import paper_case_study
from ..core.cache import CompilationCache
from ..core.pipeline import ScheduleOptions
from ..core.sets import SetGranularity
from ..exec.jobs import EvaluateJob, Evaluation
from ..ir.graph import Graph
from ..mapping.tiling import minimum_pe_requirement
from .space import SearchSpace
from .store import RunRecord

__all__ = [
    "FULL",
    "PROXY",
    "EvaluationResult",
    "PointEvaluator",
    "point_fingerprint",
]

#: Fidelity labels.
FULL = "full"
PROXY = "proxy"


def point_fingerprint(
    graph_fingerprint: str, point: Mapping[str, Any], fidelity: str = FULL
) -> str:
    """Content hash identifying one (model, point, fidelity) evaluation.

    Reuses the :func:`~repro.core.cache.graph_fingerprint` of the
    canonical model as the graph component, so the run store and the
    compilation cache agree on what "the same model" means.
    """
    payload = json.dumps(
        {"graph": graph_fingerprint, "point": dict(point), "fidelity": fidelity},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class EvaluationResult:
    """One scored (or rejected) point, in journal-ready form."""

    point: dict[str, Any]
    fingerprint: str
    fidelity: str
    feasible: bool
    objectives: dict[str, float] = field(default_factory=dict)
    info: dict[str, float] = field(default_factory=dict)
    #: Served from the run store instead of compiled this run.
    reused: bool = False

    def to_record(self) -> RunRecord:
        return RunRecord(
            fingerprint=self.fingerprint,
            fidelity=self.fidelity,
            point=self.point,
            feasible=self.feasible,
            objectives=self.objectives,
            info=self.info,
        )

    @staticmethod
    def from_record(record: RunRecord) -> "EvaluationResult":
        return EvaluationResult(
            point=dict(record.point),
            fingerprint=record.fingerprint,
            fidelity=record.fidelity,
            feasible=record.feasible,
            objectives=dict(record.objectives),
            info=dict(record.info),
            reused=True,
        )


class PointEvaluator:
    """Translates search points into compilable tasks and scored results.

    Parameters
    ----------
    canonical:
        The canonicalized model under exploration.
    base_arch:
        Architecture template: crossbar timing/cell parameters, NoC
        and DRAM specs are taken from here; the PE count, crossbar
        dimension and PEs-per-tile come from each point.  Defaults to
        the paper's case-study architecture.
    cache:
        Shared :class:`CompilationCache`; also supplies the memoized
        graph fingerprint.
    max_total_pes:
        Optional chip budget — points whose ``PE_min + extra`` exceeds
        it are infeasible (journalled, never compiled).
    """

    #: Name the jobs of :meth:`task_for` give the canonical graph; the
    #: runtime resolves it (or ships it to process workers once).
    graph_name = "explore"

    def __init__(
        self,
        canonical: Graph,
        *,
        base_arch: Optional[ArchitectureConfig] = None,
        cache: Optional[CompilationCache] = None,
        max_total_pes: Optional[int] = None,
    ) -> None:
        self.canonical = canonical
        self.base_arch = base_arch if base_arch is not None else paper_case_study(1)
        self.cache = cache if cache is not None else CompilationCache()
        self.max_total_pes = max_total_pes
        self.graph_fingerprint = self.cache.fingerprint(canonical)
        self._min_pes: dict[Any, int] = {}

    # -- translation ---------------------------------------------------

    def min_pes_for(self, point: Mapping[str, Any]) -> int:
        """The model's PE minimum on the point's crossbar geometry."""
        crossbar = self._crossbar_for(point)
        if crossbar not in self._min_pes:
            self._min_pes[crossbar] = minimum_pe_requirement(
                self.canonical, crossbar
            )
        return self._min_pes[crossbar]

    def _crossbar_for(self, point: Mapping[str, Any]):
        base = self.base_arch.crossbar
        dim = int(point.get("crossbar_dim", base.rows))
        return replace(base, rows=dim, cols=dim)

    def arch_for(self, point: Mapping[str, Any]) -> ArchitectureConfig:
        """The concrete architecture a point compiles onto."""
        crossbar = self._crossbar_for(point)
        num_pes = self.min_pes_for(point) + int(point.get("extra_pes", 16))
        tile = replace(
            self.base_arch.tile,
            pes_per_tile=int(point.get("pes_per_tile", 1)),
            crossbar=crossbar,
        )
        return ArchitectureConfig(
            num_pes=num_pes,
            tile=tile,
            noc=self.base_arch.noc,
            dram=self.base_arch.dram,
            name=f"explore-{crossbar.rows}x{crossbar.cols}",
        )

    def options_for(
        self, point: Mapping[str, Any], fidelity: str = FULL
    ) -> ScheduleOptions:
        """The schedule options a point compiles with.

        Proxy fidelity forces ``order_mode='static'`` — the cheap
        vectorized engine whose makespan is the screening score.
        """
        cap = point.get("d_max_cap", None)
        options = ScheduleOptions(
            mapping=str(point.get("mapping", "wdup")),
            scheduling=str(point.get("scheduling", "clsa-cim")),
            granularity=SetGranularity(
                rows_per_set=int(point.get("rows_per_set", 1))
            ),
            order_mode=str(point.get("order_mode", "dynamic")),
            duplication_axis=str(point.get("duplication_axis", "width")),
            d_max_cap=None if cap in (None, 0) else int(cap),
        )
        if fidelity == PROXY:
            options = replace(options, order_mode="static")
        return options

    def fingerprint(self, point: Mapping[str, Any], fidelity: str = FULL) -> str:
        return point_fingerprint(self.graph_fingerprint, point, fidelity)

    def task_for(self, point: Mapping[str, Any], fidelity: str = FULL) -> EvaluateJob:
        """The job evaluating ``point`` at ``fidelity``, keyed by fingerprint."""
        return EvaluateJob(
            graph=self.graph_name,
            arch=self.arch_for(point),
            options=self.options_for(point, fidelity),
            assume_canonical=True,
            want_energy=fidelity == FULL,
            key=self.fingerprint(point, fidelity),
        )

    # -- feasibility ---------------------------------------------------

    def infeasibility(
        self, point: Mapping[str, Any], space: Optional[SearchSpace] = None
    ) -> list[str]:
        """Why a point cannot be compiled (empty list = feasible)."""
        reasons = [] if space is None else space.violated_constraints(point)
        cap = self.max_total_pes
        if cap is None and space is not None:
            cap = space.max_total_pes
        if cap is not None:
            num_pes = self.min_pes_for(point) + int(point.get("extra_pes", 16))
            if num_pes > cap:
                reasons.append(f"max_total_pes ({num_pes} > {cap})")
        return reasons

    # -- result construction ------------------------------------------

    def result_from_eval(
        self,
        point: Mapping[str, Any],
        fidelity: str,
        evaluation: Evaluation,
    ) -> EvaluationResult:
        """Package a compile outcome into a journallable result."""
        metrics = evaluation.metrics
        objectives: dict[str, float] = {"latency": float(metrics.latency_cycles)}
        info: dict[str, float] = {
            "latency_ns": float(metrics.latency_ns),
            "num_pes": float(metrics.num_pes),
        }
        if fidelity == FULL:
            objectives["utilization"] = float(metrics.utilization)
            if evaluation.energy is not None:
                objectives["energy"] = float(evaluation.energy.total_uj)
                info["energy_mvm_uj"] = float(evaluation.energy.mvm_uj)
                info["energy_noc_uj"] = float(evaluation.energy.noc_uj)
                info["energy_static_uj"] = float(evaluation.energy.static_uj)
        return EvaluationResult(
            point=dict(point),
            fingerprint=self.fingerprint(point, fidelity),
            fidelity=fidelity,
            feasible=True,
            objectives=objectives,
            info=info,
        )

    def infeasible_result(
        self, point: Mapping[str, Any], fidelity: str, reasons: list[str]
    ) -> EvaluationResult:
        return EvaluationResult(
            point=dict(point),
            fingerprint=self.fingerprint(point, fidelity),
            fidelity=fidelity,
            feasible=False,
            objectives={},
            info={"violated": float(len(reasons))},
        )
