"""One canonical query form, four projections (`repro.core.canonical`).

The property: everything that cannot change the rows a layer reuses —
join order, how an AND/OR was spelled, a TRUE conjunct, the group-by
order, the query's name / ORDER BY / LIMIT — leaves ``family``,
``shape`` and every ``table_key`` alone, while a changed literal always
shows up in ``exact`` and in the key of the table it filters.  Then the
two disagreements the four hand-written canonicalisers used to have,
pinned end to end on a session: a query the router would call warm
finds its tables in the cache.
"""

from __future__ import annotations

import dataclasses

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.api import connect
from repro.core.canonical import CanonicalQuery
from repro.core.expressions import (
    And,
    Between,
    Comparison,
    InList,
    Or,
    TruePredicate,
)
from repro.core.joinjob import resolve_aux_columns
from repro.core.query import OrderKey
from repro.serve.aggstore import family_key
from repro.serve.routing import query_shape, result_key
from repro.ssb.schema import SCHEMAS
from tests.test_property_random_queries import star_queries


def _table_keys(query) -> dict[str, tuple]:
    canonical = CanonicalQuery(query)
    return {join.dimension: canonical.table_key(
                join, resolve_aux_columns(query, join, SCHEMAS))
            for join in query.joins}


def _respell(predicate):
    """The same filter, spelled differently: operands commuted and
    nested one level deeper, or padded with a TRUE conjunct."""
    if isinstance(predicate, (And, Or)):
        kind = type(predicate)
        parts = [_respell(p) for p in reversed(predicate.parts)]
        return kind([kind(parts[:1])] + parts[1:])
    return And([TruePredicate(), predicate])


def _bump_literal(predicate):
    """``predicate`` with one literal changed; None if it has none."""
    if isinstance(predicate, Comparison):
        literal = predicate.literal
        return Comparison(predicate.column, predicate.op,
                          literal + ("x" if isinstance(literal, str)
                                     else 1))
    if isinstance(predicate, Between):
        return Between(predicate.column, predicate.low,
                       predicate.high + 1)
    if isinstance(predicate, InList):
        return InList(predicate.column,
                      sorted(predicate.values) + ["~novel~"])
    if isinstance(predicate, And):
        return And([_bump_literal(predicate.parts[0])]
                   + predicate.parts[1:])
    return None


@settings(max_examples=150, deadline=None)
@given(star_queries(), st.randoms(use_true_random=False))
def test_equivalent_spellings_share_every_reuse_key(query, rng):
    joins = [dataclasses.replace(j, predicate=_respell(j.predicate))
             for j in query.joins]
    rng.shuffle(joins)
    group_by = list(query.group_by)
    rng.shuffle(group_by)
    variant = dataclasses.replace(
        query, name="respelled", joins=joins, group_by=group_by,
        fact_predicate=_respell(query.fact_predicate), order_by=[],
        limit=(query.limit or 0) + 1)
    assert family_key(variant) == family_key(query)
    assert query_shape(variant) == query_shape(query)
    assert _table_keys(variant) == _table_keys(query)
    assert result_key(variant) != result_key(query)


@settings(max_examples=150, deadline=None)
@given(star_queries(), st.data())
def test_a_changed_literal_changes_the_keys_it_must(query, data):
    choices = [j.dimension for j in query.joins
               if _bump_literal(j.predicate) is not None]
    if _bump_literal(query.fact_predicate) is not None:
        choices.append("<fact>")
    assume(choices)
    where = data.draw(st.sampled_from(choices))
    if where == "<fact>":
        changed = query.with_fact_predicate(
            _bump_literal(query.fact_predicate))
        assert family_key(changed) != family_key(query)
        assert _table_keys(changed) == _table_keys(query)
    else:
        changed = dataclasses.replace(query, joins=[
            dataclasses.replace(j, predicate=_bump_literal(j.predicate))
            if j.dimension == where else j for j in query.joins])
        before, after = _table_keys(query), _table_keys(changed)
        assert after[where] != before[where]
        assert all(after[d] == before[d] for d in before if d != where)
        assert family_key(changed) != family_key(query)
        assert query_shape(changed) != query_shape(query)
    assert result_key(changed) != result_key(query)


@settings(max_examples=100, deadline=None)
@given(star_queries(), star_queries())
def test_exact_refines_family_and_shape(left, right):
    if result_key(left) == result_key(right):
        assert family_key(left) == family_key(right)
        assert query_shape(left) == query_shape(right)
    a, b = CanonicalQuery(left), CanonicalQuery(left.with_name("copy"))
    assert a.exact != b.exact
    assert (a.family, a.shape) == (b.family, b.shape)


class TestWarmMeansNoBuild:
    """What the router calls warm, the hash-table cache must hit."""

    def test_commuted_join_predicate_is_a_warm_repeat(
            self, ssb_data, queries, reference):
        session = connect(backend="clydesdale", data=ssb_data, aggstore=False)
        base = queries["Q1.3"]
        joins = [dataclasses.replace(
                     j, predicate=And(list(reversed(j.predicate.parts))))
                 if isinstance(j.predicate, And) else j
                 for j in base.joins]
        commuted = dataclasses.replace(base, name="commuted", joins=joins)
        assert result_key(commuted) != result_key(base)
        assert query_shape(commuted) == query_shape(base)
        assert family_key(commuted) == family_key(base)
        session.execute(base)
        before = session.cache_stats()
        again = session.execute(commuted)
        assert session.cache_stats().misses == before.misses
        assert session.stats().execution.ht_builds == 0
        assert again.rows == reference.execute(commuted).rows

    def test_group_by_order_is_a_warm_repeat(self, ssb_data, queries,
                                             reference):
        session = connect(backend="clydesdale", data=ssb_data, aggstore=False)
        order = [OrderKey("d_year"), OrderKey("p_brand1")]
        first = dataclasses.replace(
            queries["Q2.1"], name="cat-brand", order_by=order,
            group_by=["p_category", "p_brand1", "d_year"])
        second = dataclasses.replace(
            first, name="brand-cat",
            group_by=["p_brand1", "p_category", "d_year"])
        assert query_shape(first) == query_shape(second)
        a = session.execute(first)
        b = session.execute(second)
        assert session.stats().execution.ht_builds == 0
        # Output columns still follow each query's own GROUP BY.
        assert a.columns[:3] == first.group_by
        assert b.columns[:3] == second.group_by
        assert a.rows == reference.execute(first).rows
        assert b.rows == reference.execute(second).rows
