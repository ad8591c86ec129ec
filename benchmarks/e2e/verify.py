"""Correctness of what the timed run returned, checked outside the
timed window against the reference engine.

The oracle is ``connect("reference", data=...)`` — a session over
``ReferenceEngine.from_ssb(data)``, so AVG queries go through the same
SUM/COUNT finalizer contract while every row still comes from the
nested-loop reference.  One oracle execution costs a full fact scan in
Python, and a run holds a hundred families, so the oracle is spent once
per *distinct answer*, not once per request:

* the fence :func:`streams.fresh_query` puts on a family keeps every
  fact row (checked against the data here), so the oracle executes the
  unfenced query — all families of one SSB query share its answer;
* a re-limited form is a prefix of the limit-free answer (sort then
  slice is the engine's LIMIT semantics);
* a ``rollup`` or ``avg`` form is re-aggregated here from the oracle's
  answer to the family's own grain with SUM and COUNT; both are ordered
  by their group keys, so the order is fixed too.

Every sample that kept its rows is compared row for row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.api import connect
from repro.core.query import Aggregate, OrderKey, StarQuery
from repro.serve.routing import result_key
from repro.ssb.schema import LINEORDER

import streams
from harness import Sample

#: Intended classes whose answer is the root's at a coarser grain or as
#: AVG; every other class is answered by its own limit-free form.
DERIVED = ("rollup", "avg")


@dataclass
class Verdict:
    checked: int = 0                  # samples compared row for row
    mismatched: int = 0
    oracle_runs: int = 0
    classes: dict[str, int] = field(default_factory=dict)
    first_mismatch: str | None = None


def check_fence(data: Any) -> None:
    """The fence must keep every fact row, or unfenced answers differ."""
    price = LINEORDER.index_of("lo_extendedprice")
    highest = max(row[price] for row in data.lineorder)
    if highest >= streams.UNIQUE_BASE:
        raise ValueError(f"lo_extendedprice reaches {highest}: the fence "
                         f"at {streams.UNIQUE_BASE} would drop rows")


def fine_form(root: StarQuery) -> StarQuery:
    """``root`` with SUM and COUNT of every measure, ordered by its
    group keys: what every coarser or AVG form can be computed from."""
    aggregates = []
    for agg in root.aggregates:
        aggregates.append(Aggregate("sum", agg.expr, agg.alias))
        aggregates.append(Aggregate("count", agg.expr, f"{agg.alias}__n"))
    return (root.with_order_by([OrderKey(c) for c in root.group_by])
            .with_aggregates(aggregates).without_limit())


def rolled_up(fine: list[tuple], root: StarQuery,
              query: StarQuery) -> list[tuple]:
    """``query``'s answer from ``fine`` (the rows of ``fine_form(root)``):
    group by ``query``'s subset of the keys, add the sums and counts up,
    divide where ``query`` asks for AVG, order by the group keys."""
    width = len(root.group_by)
    keep = [root.group_by.index(column) for column in query.group_by]
    totals: dict[tuple, list] = {}
    for row in fine:
        key = tuple(row[i] for i in keep)
        sums = totals.setdefault(key, [0] * (len(row) - width))
        for i, value in enumerate(row[width:]):
            sums[i] += value
    return [key + tuple(sums[2 * i] / sums[2 * i + 1]
                        if agg.function == "avg" else sums[2 * i]
                        for i, agg in enumerate(query.aggregates))
            for key, sums in sorted(totals.items())]


class Oracle:
    """Reference answers, one execution per distinct query."""

    def __init__(self, data: Any) -> None:
        check_fence(data)
        self.session = connect("reference", data=data)
        self.answers: dict[str, list[tuple]] = {}

    def rows(self, query: StarQuery) -> list[tuple]:
        key = result_key(query.with_name(""))
        if key not in self.answers:
            self.answers[key] = self.session.execute(query).rows
        return self.answers[key]

    def expected(self, request: streams.Request) -> list[tuple]:
        query = request.query
        if request.cls in DERIVED:
            root = streams.unfenced(request.root)
            full = rolled_up(self.rows(fine_form(root)), root, query)
        else:
            full = self.rows(streams.unfenced(query).without_limit())
        return full if query.limit is None else full[:query.limit]


def check_samples(data: Any, samples: list[Sample]) -> Verdict:
    """Compare every sample that kept its rows with the oracle."""
    oracle = Oracle(data)
    verdict = Verdict()
    for sample in samples:
        if sample.rows is None:
            continue
        want = oracle.expected(sample.request)
        cls = sample.request.cls
        verdict.checked += 1
        verdict.classes[cls] = verdict.classes.get(cls, 0) + 1
        if sample.rows != want:
            verdict.mismatched += 1
            if verdict.first_mismatch is None:
                verdict.first_mismatch = (
                    f"{sample.request.query.name} ({cls}, served "
                    f"{sample.source}): got {len(sample.rows)} rows, "
                    f"want {len(want)}")
    verdict.oracle_runs = len(oracle.answers)
    return verdict
