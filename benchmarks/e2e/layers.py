"""The traced run's in-process re-drive of benchmark cases, one span
per call into a layer.

``drive_case`` does by hand what ``repro.bench.runner`` does for one
case — build the dataset, run the platform, price the trace — through
the layers' public functions only, so each step's host time is
attributed to the module that spent it.  :class:`CaseTotals` folds the
results into the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace

from common import add_src_to_path
from spans import Tracer

add_src_to_path()

from repro.cluster import price_trace, single_machine  # noqa: E402
from repro.datagen import build_dataset  # noqa: E402
from repro.errors import OutOfMemoryError, UnsupportedAlgorithmError  # noqa: E402
from repro.platforms import get_platform  # noqa: E402

ALGORITHMS = ("pr", "lpa", "sssp", "wcc", "bc", "cd", "tc", "kc")
FAMILIES = ("vertex_centric", "edge_centric", "block_centric",
            "subgraph_centric")


@dataclass
class DrivenCase:
    key: str
    status: str
    sim_seconds: float | None
    result: object | None       # PlatformRunResult of an ok case
    edges: int
    run_s: float                # host seconds in Platform.run, re-price excluded


@dataclass
class CaseTotals:
    """Accumulates the platforms/cluster/datagen metrics over driven cases."""

    family_run_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    family_cases: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    family_sim_ops: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    algo_run_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    case_run_s: dict[str, float] = field(default_factory=dict)
    price_s: float = 0.0
    build_s: float = 0.0
    built_edges: int = 0
    sim_seconds: float = 0.0
    sim_supersteps: int = 0
    sim_messages: int = 0
    sim_ops: float = 0.0

    @property
    def layers_s(self) -> float:
        """Host seconds inside datagen, the engines and the cost model."""
        return self.build_s + sum(self.case_run_s.values()) + self.price_s

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for family in FAMILIES:
            layer = f"platforms.{family}"
            out[f"{layer}.run_s"] = self.family_run_s[family]
            out[f"{layer}.cases"] = self.family_cases[family]
            ops = self.family_sim_ops[family]
            out[f"{layer}.host_ns_per_sim_op"] = (
                self.family_run_s[family] * 1e9 / ops if ops else 0.0
            )
        total = sum(self.case_run_s.values())
        out["platforms.top_case_share"] = (
            max(self.case_run_s.values()) / total if total else 0.0
        )
        for algorithm in ALGORITHMS:
            out[f"algo.{algorithm}.run_s"] = self.algo_run_s[algorithm]
        out["cluster.price_s"] = self.price_s
        out["cluster.sim_seconds_total"] = self.sim_seconds
        out["cluster.sim_supersteps_total"] = self.sim_supersteps
        out["cluster.sim_messages_total"] = self.sim_messages
        out["cluster.sim_ops_total"] = self.sim_ops
        out["datagen.build_s"] = self.build_s
        out["datagen.edges_per_s"] = (
            self.built_edges / self.build_s if self.build_s else 0.0
        )
        return out


def drive_case(
    tracer: Tracer,
    totals: CaseTotals,
    platform_name: str,
    algorithm: str,
    dataset: str,
    scale_divisor: int,
    *,
    red_bar: bool = False,
    first_build: bool = False,
) -> DrivenCase:
    """Build, run and re-price one case under spans; fold it into ``totals``.

    ``red_bar`` promotes the case to 16 machines the way Fig. 10 does;
    ``first_build`` marks the call that builds the dataset cold (later
    calls hit the catalog's in-process cache and cost microseconds).
    """
    key = f"{platform_name}/{algorithm}/{dataset}"
    platform = get_platform(platform_name)
    family = platform.profile.model.replace("-", "_")
    cluster = single_machine(32)
    if red_bar:
        cluster = replace(cluster, machines=16)
    with tracer.span("case", "benchmark", trace=key):
        with tracer.span("build_dataset", "datagen") as build:
            graph = build_dataset(dataset, scale_divisor=scale_divisor).graph
        if first_build:
            totals.build_s += build.duration
            totals.built_edges += graph.num_edges
        result = None
        try:
            with tracer.span("run", f"platforms.{family}") as run:
                result = platform.run(algorithm, graph, cluster)
            status = "ok"
        except UnsupportedAlgorithmError:
            status = "unsupported"
        except OutOfMemoryError:
            status = "oom"
        run_s = run.duration
        sim_seconds = None
        if result is not None:
            # Platform.run prices its own trace once; the same call
            # repeated here is what that step cost, and is taken off the
            # engine's time.
            with tracer.span("price", "cluster") as price:
                priced = price_trace(result.trace, cluster,
                                     platform.profile.cost)
            sim_seconds = priced.seconds
            run_s = max(0.0, run.duration - price.duration)
            totals.price_s += price.duration
            totals.sim_seconds += priced.seconds
            totals.sim_supersteps += result.trace.supersteps
            totals.sim_messages += result.trace.total_messages
            totals.sim_ops += result.trace.total_ops
            totals.family_sim_ops[family] += result.trace.total_ops
    totals.family_run_s[family] += run_s
    totals.family_cases[family] += 1
    totals.algo_run_s[algorithm] += run_s
    totals.case_run_s[key] = run_s
    return DrivenCase(key, status, sim_seconds, result, graph.num_edges, run_s)
