"""Tests for the SSB data generator: determinism, cardinalities,
domains, and referential integrity."""

import pytest

from repro.ssb.datagen import (
    NATIONS,
    NUM_DATES,
    REGIONS,
    SSBGenerator,
    city_name,
    customer_count,
    lineorder_count,
    part_count,
    supplier_count,
)
from repro.ssb.schema import SCHEMAS


@pytest.fixture(scope="module")
def data():
    return SSBGenerator(scale_factor=0.005, seed=11).generate()


class TestCardinalities:
    def test_sf1_counts_match_ssb_spec(self):
        assert customer_count(1.0) == 30_000
        assert supplier_count(1.0) == 2_000
        assert part_count(1.0) == 200_000
        assert lineorder_count(1.0) == 6_000_000

    def test_sf1000_part_log_scaling(self):
        # 200,000 * (1 + log2(1000)) ~ 2.19M
        assert 2_100_000 < part_count(1000.0) < 2_250_000

    def test_fractional_sf_scales_linearly(self):
        assert customer_count(0.1) == 3_000
        assert lineorder_count(0.01) == 60_000

    def test_minimum_floors(self):
        assert customer_count(1e-9) == 30
        assert supplier_count(1e-9) == 10

    def test_generated_sizes(self, data):
        assert len(data.customer) == customer_count(0.005)
        assert len(data.supplier) == supplier_count(0.005)
        assert len(data.part) == part_count(0.005)
        assert len(data.date) == NUM_DATES
        assert len(data.lineorder) == lineorder_count(0.005)

    def test_invalid_sf_rejected(self):
        with pytest.raises(ValueError):
            SSBGenerator(scale_factor=0)


class TestDeterminism:
    def test_same_seed_same_data(self, data):
        again = SSBGenerator(scale_factor=0.005, seed=11).generate()
        assert again.lineorder == data.lineorder
        assert again.customer == data.customer

    def test_different_seed_different_data(self, data):
        other = SSBGenerator(scale_factor=0.005, seed=12).generate()
        assert other.lineorder != data.lineorder

    def test_repeated_keys_and_measures_share_one_object(self, data):
        """The held fact table stays compact: every repeat of a key or
        measure value is the same object, not an equal copy."""
        lineorder = SCHEMAS["lineorder"]
        for column in ("lo_custkey", "lo_partkey", "lo_extendedprice",
                       "lo_revenue", "lo_supplycost"):
            index = lineorder.index_of(column)
            first: dict[int, int] = {}
            for row in data.lineorder:
                assert first.setdefault(row[index], row[index]) \
                    is row[index], column


class TestDomains:
    def test_city_name_format(self):
        assert city_name("UNITED KINGDOM", 1) == "UNITED KI1"
        assert city_name("PERU", 5) == "PERU     5"
        assert len(city_name("CHINA", 0)) == 10

    def test_nation_region_consistency(self, data):
        nation_region = dict(NATIONS)
        for row in data.customer:
            assert row[5] == nation_region[row[4]]
        for row in data.supplier:
            assert row[5] == nation_region[row[4]]

    def test_five_regions_five_nations_each(self):
        from collections import Counter
        counts = Counter(region for _, region in NATIONS)
        assert set(counts) == set(REGIONS)
        assert all(v == 5 for v in counts.values())

    def test_part_hierarchy(self, data):
        for row in data.part:
            mfgr, category, brand = row[2], row[3], row[4]
            assert mfgr.startswith("MFGR#") and len(mfgr) == 6
            assert category.startswith(mfgr)
            assert len(category) == 7
            assert brand.startswith(category)
            assert 1 <= int(brand[len(category):]) <= 40

    def test_brand_between_predicate_is_lexicographic(self, data):
        """The SSB Q2.2 trick: BETWEEN on brand strings selects exactly
        the intended brand numbers."""
        brands = {row[4] for row in data.part
                  if row[3] == "MFGR#22"}
        selected = {b for b in brands
                    if "MFGR#2221" <= b <= "MFGR#2228"}
        expected = {f"MFGR#22{i}" for i in range(21, 29)} & brands
        assert selected == expected

    def test_date_keys_and_year_fields(self, data):
        for row in data.date[:400]:
            datekey, year, yearmonthnum = row[0], row[4], row[5]
            assert datekey // 10_000 == year
            assert yearmonthnum == (datekey // 100)
        years = {row[4] for row in data.date}
        assert years == set(range(1992, 1999))

    def test_date_yearmonth_format(self, data):
        assert data.date[0][6] == "Jan1992"
        dec97 = [row for row in data.date if row[6] == "Dec1997"]
        assert len(dec97) == 31

    def test_week_numbers_bounded(self, data):
        assert all(1 <= row[11] <= 54 for row in data.date)

    def test_lineorder_value_ranges(self, data):
        for row in data.lineorder[:2_000]:
            assert 1 <= row[8] <= 50          # quantity
            assert 0 <= row[11] <= 10         # discount
            assert 0 <= row[14] <= 8          # tax
            assert row[12] == row[9] * (100 - row[11]) // 100  # revenue

    def test_lineorder_line_numbers(self, data):
        by_order = {}
        for row in data.lineorder:
            by_order.setdefault(row[0], []).append(row[1])
        for lines in by_order.values():
            assert lines == list(range(1, len(lines) + 1))


class TestReferentialIntegrity:
    def test_all_foreign_keys_resolve(self, data):
        custkeys = {row[0] for row in data.customer}
        partkeys = {row[0] for row in data.part}
        suppkeys = {row[0] for row in data.supplier}
        datekeys = {row[0] for row in data.date}
        for row in data.lineorder:
            assert row[2] in custkeys
            assert row[3] in partkeys
            assert row[4] in suppkeys
            assert row[5] in datekeys
            assert row[15] in datekeys  # commitdate

    def test_primary_keys_unique(self, data):
        for table in ("customer", "supplier", "part", "date"):
            rows = data.tables()[table]
            assert len({row[0] for row in rows}) == len(rows)

    def test_rows_match_schemas(self, data):
        for table, rows in data.tables().items():
            schema = SCHEMAS[table]
            for row in rows[:200]:
                schema.validate_row(row)
