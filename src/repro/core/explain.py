"""EXPLAIN for star queries: what each engine would do, before running.

Renders the physical plan the way a database would — the Clydesdale
single-job plan with its scan projection, hash-table estimates, and
scheduler decisions; or Hive's multi-stage plan with per-stage joins and
broadcast sizes. The numbers come from the same catalog metadata and
cost model the engines use, so the explanation matches execution.
"""

from __future__ import annotations

from repro.core.expressions import TruePredicate
from repro.core.multipass import estimate_ht_bytes, plan_passes
from repro.core.planner import (
    ClydesdaleFeatures,
    derive_zonemap_predicate,
    fact_scan_columns,
    validate_query,
)
from repro.core.query import DimensionJoin, StarQuery
from repro.common.units import fmt_bytes
from repro.sim.costs import DEFAULT_COST_MODEL, CostModel
from repro.sim.hardware import ClusterSpec, tiny_cluster
from repro.ssb.loader import Catalog


def _branch_lines(join: DimensionJoin, catalog: Catalog,
                  indent: str) -> list[str]:
    predicate = ("" if isinstance(join.predicate, TruePredicate)
                 else f" filter[{join.predicate.to_sql()}]")
    rows = catalog.meta(join.dimension).num_rows
    lines = [f"{indent}hash build: {join.dimension} "
             f"({rows:,} rows) on {join.dim_pk}{predicate}"]
    for sub in join.snowflake:
        lines.append(f"{indent}  denormalize via "
                     f"{sub.fact_fk} = {sub.dim_pk}:")
        lines.extend(_branch_lines(sub, catalog, indent + "    "))
    return lines


def explain_clydesdale(query: StarQuery, catalog: Catalog,
                       cluster: ClusterSpec | None = None,
                       cost_model: CostModel | None = None,
                       features: ClydesdaleFeatures | None = None,
                       fs=None, trace: bool = False) -> str:
    """The Clydesdale physical plan as text.

    ``fs`` (the filesystem holding the tables) lets the plan show the
    zone-map pruning predicate the planner would derive; without it the
    zone-map line only reports whether statistics exist.
    """
    validate_query(query, catalog)
    cluster = cluster or tiny_cluster()
    cm = cost_model or DEFAULT_COST_MODEL
    ft = features or ClydesdaleFeatures()
    lines = [f"CLYDESDALE PLAN for {query.name}",
             "=" * (20 + len(query.name))]

    columns = fact_scan_columns(query, catalog)
    fact_meta = catalog.meta(query.fact_table)
    if ft.columnar:
        block_mode = ("B-CIF blocks (vectorized kernels)"
                      if ft.block_iteration else "CIF rows")
        lines.append(
            f"scan {query.fact_table} ({fact_meta.num_rows:,} rows) "
            f"via {block_mode}, columns {columns}")
    else:
        lines.append(
            f"scan {query.fact_table} ({fact_meta.num_rows:,} rows) "
            f"reading ALL {len(fact_meta.schema)} columns "
            f"(columnar projection disabled)")
    if not isinstance(query.fact_predicate, TruePredicate):
        lines.append(f"  filter[{query.fact_predicate.to_sql()}]")
    if ft.zone_maps:
        has_stats = any(isinstance(g, dict) and g.get("zonemap")
                        for g in fact_meta.extras.get("groups", []))
        if not has_stats:
            lines.append("  zone maps: no row-group statistics "
                         "(no pruning)")
        else:
            pruner = (derive_zonemap_predicate(query, catalog, fs)
                      if fs is not None else None)
            if pruner is not None:
                lines.append(f"  zone maps: skip row groups where NOT "
                             f"[{pruner.to_sql()}]")
            else:
                lines.append("  zone maps: on (no pruning predicate "
                             "derived)")

    sizes = estimate_ht_bytes(query, catalog,
                              cm.clydesdale_hash_bytes_per_entry)
    for join in query.joins:
        lines.extend(_branch_lines(join, catalog, "  "))
        lines.append(f"    probe {join.fact_fk} -> {join.dim_pk} "
                     f"(<= {fmt_bytes(sizes[join.dimension])} in "
                     f"memory, one copy per node)")

    budget = cluster.heap_budget_per_node
    total_ht = sum(sizes.values())
    if query.joins and total_ht > budget:
        passes = plan_passes(query, catalog, budget,
                             cm.clydesdale_hash_bytes_per_entry)
        if len(passes) > 1:
            lines.append(
                f"memory: worst-case tables {fmt_bytes(total_ht)} exceed "
                f"the {fmt_bytes(budget)} heap -> MULTI-PASS plan: "
                + " | ".join("+".join(group) for group in passes))
    if ft.multithreaded:
        lines.append(
            f"schedule: capacity scheduler, 1 map task per node, "
            f"{cluster.node.map_slots} join threads sharing the hash "
            f"tables, JVM reuse "
            f"{'on' if ft.jvm_reuse else 'off'}")
    else:
        lines.append("schedule: standard slots, single-threaded tasks, "
                     "each building its own hash tables")
    lines.append(f"aggregate: {[a.to_sql() for a in query.aggregates]} "
                 f"group by {query.group_by} "
                 f"(combiners + {max(1, cluster.total_reduce_slots)} "
                 f"reducers)")
    if query.order_by:
        keys = ", ".join(
            f"{k.column} {'DESC' if k.descending else 'ASC'}"
            for k in query.order_by)
        lines.append(f"final: single-process sort by {keys}")
    if trace:
        lines.append(
            "trace: clydesdale.trace on -> span tree "
            "query > plan/schedule/job > map_task > "
            "scan/build/join_thread > probe; reduce > "
            "shuffle/sort/aggregate (exports: json, chrome, flame)")
    return "\n".join(lines)


def explain_hive(query: StarQuery, catalog: Catalog, plan: str = "mapjoin",
                 cluster: ClusterSpec | None = None,
                 cost_model: CostModel | None = None) -> str:
    """Hive's multi-stage plan as text (mapjoin or repartition)."""
    validate_query(query, catalog)
    cluster = cluster or tiny_cluster()
    cm = cost_model or DEFAULT_COST_MODEL
    lines = [f"HIVE {plan.upper()} PLAN for {query.name}",
             "=" * (20 + len(plan) + len(query.name))]
    source = f"{query.fact_table} (RCFile)"
    for index, join in enumerate(query.joins, start=1):
        rows = catalog.meta(join.dimension).num_rows
        ht = rows * cm.hive_hash_bytes_per_entry
        if plan == "mapjoin":
            lines.append(
                f"stage {index}: broadcast {join.dimension} hash "
                f"(<= {fmt_bytes(ht)}; one copy per map SLOT, reloaded "
                f"by every task) and map-join with {source}")
        else:
            lines.append(
                f"stage {index}: shuffle {source} and {join.dimension} "
                f"on {join.fact_fk} = {join.dim_pk}; reduce-side "
                f"sort-merge join on "
                f"{max(1, cluster.total_reduce_slots)} reducers")
        lines.append(f"  write intermediate to HDFS")
        source = f"stage-{index} intermediate"
    lines.append(f"stage {len(query.joins) + 1}: group-by MapReduce job "
                 f"over {source}")
    if query.order_by:
        lines.append(f"stage {len(query.joins) + 2}: order-by job")
    return "\n".join(lines)
