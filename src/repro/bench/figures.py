"""Regenerating every table and figure of the paper's evaluation.

Each ``fig*``/``table*`` function returns structured rows (so tests and
EXPERIMENTS.md generation can consume them) and can render the same
series the paper plots. Timings at SF1000 come from the calibrated
analytic models; correctness comes from real small-scale execution
(``validate_small_scale``), which runs all 13 queries through
Clydesdale, both Hive plans, and the reference engine and insists on
identical answers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench import paper_reference as paper
from repro.bench.dfsio import DfsioResult, run_dfsio
from repro.bench.report import fmt_speedup, render_table
from repro.core.engine import ClydesdaleEngine
from repro.core.planner import ClydesdaleFeatures
from repro.hive.engine import HiveEngine
from repro.model.clydesdale import predict_clydesdale
from repro.model.dfsio import predict_dfsio
from repro.model.hive import predict_hive_mapjoin, predict_hive_repartition
from repro.model.results import ModelResult
from repro.model.stats import build_profile
from repro.reference.engine import ReferenceEngine
from repro.serve.session import Session
from repro.sim.costs import DEFAULT_COST_MODEL, CostModel
from repro.sim.hardware import ClusterSpec, cluster_a, cluster_b
from repro.ssb.datagen import SSBGenerator
from repro.ssb.queries import FLIGHTS, ssb_queries

MODEL_SF = 1000.0


@dataclass
class SpeedupRow:
    """One query's row in Figure 7/8."""

    query: str
    clydesdale_s: float
    repartition_s: float
    mapjoin_s: float | None  # None = OOM
    clydesdale: ModelResult = field(repr=False, default=None)

    @property
    def speedup_repartition(self) -> float:
        return self.repartition_s / self.clydesdale_s

    @property
    def speedup_mapjoin(self) -> float | None:
        if self.mapjoin_s is None:
            return None
        return self.mapjoin_s / self.clydesdale_s


def speedup_rows(cluster: ClusterSpec,
                 cost_model: CostModel | None = None,
                 scale_factor: float = MODEL_SF) -> list[SpeedupRow]:
    """The Figure 7/8 data series for one cluster."""
    cm = cost_model or DEFAULT_COST_MODEL
    rows = []
    for name, query in ssb_queries().items():
        profile = build_profile(query, scale_factor)
        clyde = predict_clydesdale(profile, cluster, cm)
        mapjoin = predict_hive_mapjoin(profile, cluster, cm)
        repart = predict_hive_repartition(profile, cluster, cm)
        rows.append(SpeedupRow(
            query=name,
            clydesdale_s=clyde.seconds,
            repartition_s=repart.seconds,
            mapjoin_s=mapjoin.seconds if mapjoin.completed else None,
            clydesdale=clyde))
    return rows


def summarize_speedups(rows: list[SpeedupRow]) -> dict:
    """Range/average over both Hive plans, plus the OOM set."""
    speedups = [r.speedup_repartition for r in rows]
    speedups += [r.speedup_mapjoin for r in rows
                 if r.speedup_mapjoin is not None]
    return {
        "min": min(speedups),
        "max": max(speedups),
        "avg": sum(speedups) / len(speedups),
        "oom": tuple(r.query for r in rows if r.mapjoin_s is None),
    }


def fig7(cost_model: CostModel | None = None) -> list[SpeedupRow]:
    """Figure 7: Clydesdale vs Hive, SF1000, cluster A."""
    return speedup_rows(cluster_a(), cost_model)


def fig8(cost_model: CostModel | None = None) -> list[SpeedupRow]:
    """Figure 8: Clydesdale vs Hive, SF1000, cluster B."""
    return speedup_rows(cluster_b(), cost_model)


def render_speedup_figure(rows: list[SpeedupRow], title: str) -> str:
    table_rows = []
    for row in rows:
        table_rows.append([
            row.query,
            f"{row.clydesdale_s:,.0f}",
            f"{row.repartition_s:,.0f}",
            "OOM" if row.mapjoin_s is None else f"{row.mapjoin_s:,.0f}",
            fmt_speedup(row.speedup_repartition),
            fmt_speedup(row.speedup_mapjoin),
        ])
    summary = summarize_speedups(rows)
    rendered = render_table(
        ["query", "clydesdale (s)", "hive repartition (s)",
         "hive mapjoin (s)", "speedup vs repart", "speedup vs mapjoin"],
        table_rows, title=title)
    rendered += (f"\n\nspeedup range {summary['min']:.1f}x - "
                 f"{summary['max']:.1f}x, average {summary['avg']:.1f}x; "
                 f"mapjoin OOM: {list(summary['oom']) or 'none'}")
    return rendered


# --------------------------------------------------------------------- #
# Figure 9: ablation
# --------------------------------------------------------------------- #

@dataclass
class AblationRow:
    """One query's row in Figure 9 (slowdown factors vs all-features)."""

    query: str
    base_s: float
    no_block_iteration: float
    no_columnar: float
    no_multithreading: float


def fig9(cost_model: CostModel | None = None,
         scale_factor: float = MODEL_SF) -> list[AblationRow]:
    """Figure 9: per-feature slowdowns on cluster A."""
    cm = cost_model or DEFAULT_COST_MODEL
    cluster = cluster_a()
    rows = []
    for name, query in ssb_queries().items():
        profile = build_profile(query, scale_factor)
        base = predict_clydesdale(profile, cluster, cm).seconds
        variants = {}
        for label, features in (
                ("no_block", ClydesdaleFeatures(block_iteration=False)),
                ("no_col", ClydesdaleFeatures(columnar=False)),
                ("no_mt", ClydesdaleFeatures(multithreaded=False))):
            variants[label] = predict_clydesdale(
                profile, cluster, cm, features=features).seconds / base
        rows.append(AblationRow(
            query=name, base_s=base,
            no_block_iteration=variants["no_block"],
            no_columnar=variants["no_col"],
            no_multithreading=variants["no_mt"]))
    return rows


def flight_averages(rows: list[AblationRow]) -> dict[int, dict[str, float]]:
    """Average each ablation factor per query flight."""
    out: dict[int, dict[str, float]] = {}
    for flight, names in FLIGHTS.items():
        subset = [r for r in rows if r.query in names]
        out[flight] = {
            "no_block_iteration": sum(r.no_block_iteration
                                      for r in subset) / len(subset),
            "no_columnar": sum(r.no_columnar for r in subset) / len(subset),
            "no_multithreading": sum(r.no_multithreading
                                     for r in subset) / len(subset),
        }
    return out


def render_ablation_figure(rows: list[AblationRow]) -> str:
    table_rows = [[r.query, f"{r.base_s:,.0f}",
                   f"{r.no_block_iteration:.2f}x",
                   f"{r.no_columnar:.2f}x",
                   f"{r.no_multithreading:.2f}x"] for r in rows]
    rendered = render_table(
        ["query", "all features (s)", "-block iteration", "-columnar",
         "-multithreading"],
        table_rows,
        title="Figure 9: impact of disabling Clydesdale features "
              "(cluster A, SF1000)")
    avg = {
        "block": sum(r.no_block_iteration for r in rows) / len(rows),
        "col": sum(r.no_columnar for r in rows) / len(rows),
        "mt": sum(r.no_multithreading for r in rows) / len(rows),
    }
    rendered += (f"\n\naverages: -block iteration {avg['block']:.2f}x "
                 f"(paper {paper.FIG9_BLOCK_ITERATION_AVG}x), "
                 f"-columnar {avg['col']:.2f}x "
                 f"(paper {paper.FIG9_COLUMNAR_AVG}x), "
                 f"-multithreading {avg['mt']:.2f}x "
                 f"(paper {paper.FIG9_MULTITHREADING_AVG}x)")
    return rendered


# --------------------------------------------------------------------- #
# Table 1: TestDFSIO
# --------------------------------------------------------------------- #

def table1(cost_model: CostModel | None = None) -> list[dict]:
    """Table 1 rows: modeled DFSIO numbers for clusters A and B."""
    cm = cost_model or DEFAULT_COST_MODEL
    rows = []
    for cluster in (cluster_a(), cluster_b()):
        modeled = predict_dfsio(cluster, cm)
        rows.append({
            "cluster": cluster.name,
            "raw_read_mb_s": modeled.raw_read_mb_s,
            "dfsio_read_mb_s": modeled.dfsio_read_mb_s,
            "dfsio_write_mb_s": modeled.dfsio_write_mb_s,
            "query_scan_mb_s": modeled.query_scan_mb_s,
            "read_fraction_of_raw": modeled.read_fraction_of_raw,
        })
    return rows


def table1_functional(num_nodes: int = 4,
                      cost_model: CostModel | None = None) -> DfsioResult:
    """Run the actual TestDFSIO jobs on a mini cluster."""
    from repro.hdfs.filesystem import MiniDFS
    from repro.sim.hardware import tiny_cluster
    cm = cost_model or DEFAULT_COST_MODEL
    fs = MiniDFS(num_nodes=num_nodes)
    return run_dfsio(fs, tiny_cluster(workers=num_nodes), cm)


def render_table1(rows: list[dict]) -> str:
    table_rows = [[
        r["cluster"], f"{r['raw_read_mb_s']:,.0f}",
        f"{r['dfsio_read_mb_s']:,.0f}", f"{r['dfsio_write_mb_s']:,.0f}",
        f"{r['query_scan_mb_s']:,.0f}",
        f"{100 * r['read_fraction_of_raw']:.0f}%"] for r in rows]
    return render_table(
        ["cluster", "raw read (dd) MB/s", "DFSIO read MB/s",
         "DFSIO write MB/s", "query scan MB/s", "read / raw"],
        table_rows,
        title="Table 1: HDFS bandwidth vs raw disk bandwidth (per node)")


# --------------------------------------------------------------------- #
# Section 6.3: the Q2.1 breakdown
# --------------------------------------------------------------------- #

def q21_breakdown(cost_model: CostModel | None = None) -> dict:
    """Per-stage Q2.1 numbers on cluster A, ours vs the paper's."""
    cm = cost_model or DEFAULT_COST_MODEL
    cluster = cluster_a()
    query = ssb_queries()["Q2.1"]
    profile = build_profile(query, MODEL_SF)
    return {
        "clydesdale": predict_clydesdale(profile, cluster, cm),
        "mapjoin": predict_hive_mapjoin(profile, cluster, cm),
        "repartition": predict_hive_repartition(profile, cluster, cm),
        "paper": {
            "clydesdale_total": paper.Q21_CLYDESDALE_TOTAL,
            "clydesdale_build": paper.Q21_CLYDESDALE_BUILD,
            "clydesdale_probe": paper.Q21_CLYDESDALE_PROBE,
            "mapjoin_total": paper.Q21_MAPJOIN_TOTAL,
            "mapjoin_stages": dict(paper.Q21_MAPJOIN_STAGES),
            "repartition_total": paper.Q21_REPARTITION_TOTAL,
            "repartition_stages": dict(paper.Q21_REPARTITION_STAGES),
        },
    }


def render_q21(breakdown: dict) -> str:
    lines = ["Q2.1 breakdown on cluster A (SF1000), ours vs paper",
             "=" * 52]
    clyde: ModelResult = breakdown["clydesdale"]
    p = breakdown["paper"]
    lines.append(f"Clydesdale total: {clyde.seconds:,.0f} s "
                 f"(paper {p['clydesdale_total']:,.0f} s)")
    for stage in clyde.stages:
        lines.append(f"  {stage.name}: {stage.seconds:,.1f} s")
    mapjoin: ModelResult = breakdown["mapjoin"]
    lines.append(f"Hive mapjoin total: {mapjoin.seconds:,.0f} s "
                 f"(paper {p['mapjoin_total']:,.0f} s)")
    for stage in mapjoin.stages:
        lines.append(f"  {stage.name}: {stage.seconds:,.0f} s")
    repart: ModelResult = breakdown["repartition"]
    lines.append(f"Hive repartition total: {repart.seconds:,.0f} s "
                 f"(paper {p['repartition_total']:,.0f} s)")
    for stage in repart.stages:
        lines.append(f"  {stage.name}: {stage.seconds:,.0f} s")
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Small-scale functional validation
# --------------------------------------------------------------------- #

def validate_small_scale(scale_factor: float = 0.002, seed: int = 42,
                         num_nodes: int = 4,
                         queries: list[str] | None = None) -> dict:
    """Execute every query on every engine at small scale; assert
    identical answers; return per-query row counts and simulated times."""
    data = SSBGenerator(scale_factor=scale_factor, seed=seed).generate()
    clyde = Session(
        ClydesdaleEngine.with_ssb_data(data=data, num_nodes=num_nodes))
    hive_engine = HiveEngine.with_ssb_data(data=data, num_nodes=num_nodes)
    mapjoin = Session(hive_engine, plan="mapjoin")
    repartition = Session(hive_engine, plan="repartition")
    reference = ReferenceEngine.from_ssb(data)
    outcomes = {}
    names = queries or list(ssb_queries())
    all_queries = ssb_queries()
    for name in names:
        query = all_queries[name]
        expected = reference.execute(query)
        got_clyde = clyde.execute(query)
        got_mapjoin = mapjoin.execute(query)
        got_repart = repartition.execute(query)
        for engine_name, got in (("clydesdale", got_clyde),
                                 ("mapjoin", got_mapjoin),
                                 ("repartition", got_repart)):
            if got.rows != expected.rows:
                raise AssertionError(
                    f"{name}: {engine_name} answered differently from the "
                    f"reference engine")
        outcomes[name] = {
            "rows": len(expected.rows),
            "clydesdale_s": got_clyde.simulated_seconds,
            "mapjoin_s": got_mapjoin.simulated_seconds,
            "repartition_s": got_repart.simulated_seconds,
        }
    return outcomes
