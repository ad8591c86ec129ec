"""Deterministic Star Schema Benchmark data generator.

A pure-Python stand-in for SSB ``dbgen``: the same cardinality rules
(customer 30,000 x SF; supplier 2,000 x SF; part 200,000 x (1 + log2 SF);
date fixed at 2,557 days over 1992-1998; lineorder 6,000,000 x SF), the
same value domains (5 regions, 25 nations, MFGR#-style part hierarchy,
city = first-9-chars-of-nation + digit), and foreign-key integrity by
construction. Fully deterministic for a given (scale factor, seed).

Fractional scale factors (SF < 1) shrink every table proportionally so
the full pipeline runs in-process; selectivity *fractions* of all SSB
predicates are scale-free, which is what the timing model needs.
"""

from __future__ import annotations

import datetime as _dt
import math
import random
from dataclasses import dataclass, field
from typing import Iterator

REGIONS = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")

#: The 25 TPC-H nations and their regions.
NATIONS: tuple[tuple[str, str], ...] = (
    ("ALGERIA", "AFRICA"), ("ARGENTINA", "AMERICA"), ("BRAZIL", "AMERICA"),
    ("CANADA", "AMERICA"), ("EGYPT", "MIDDLE EAST"), ("ETHIOPIA", "AFRICA"),
    ("FRANCE", "EUROPE"), ("GERMANY", "EUROPE"), ("INDIA", "ASIA"),
    ("INDONESIA", "ASIA"), ("IRAN", "MIDDLE EAST"), ("IRAQ", "MIDDLE EAST"),
    ("JAPAN", "ASIA"), ("JORDAN", "MIDDLE EAST"), ("KENYA", "AFRICA"),
    ("MOROCCO", "AFRICA"), ("MOZAMBIQUE", "AFRICA"), ("PERU", "AMERICA"),
    ("CHINA", "ASIA"), ("ROMANIA", "EUROPE"),
    ("SAUDI ARABIA", "MIDDLE EAST"), ("VIETNAM", "ASIA"),
    ("RUSSIA", "EUROPE"), ("UNITED KINGDOM", "EUROPE"),
    ("UNITED STATES", "AMERICA"),
)

MKT_SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD",
                "MACHINERY")
ORDER_PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED",
                    "5-LOW")
SHIP_MODES = ("AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK")
COLORS = ("almond", "antique", "aquamarine", "azure", "beige", "bisque",
          "black", "blanched", "blue", "blush", "brown", "burlywood",
          "burnished", "chartreuse", "chiffon", "chocolate", "coral",
          "cornflower", "cornsilk", "cream", "cyan", "dark", "deep",
          "dim", "dodger")
TYPES = ("STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO")
TYPE_MATERIALS = ("TIN", "NICKEL", "BRASS", "STEEL", "COPPER")
CONTAINERS = ("SM CASE", "SM BOX", "SM PACK", "SM PKG", "MED BAG",
              "MED BOX", "MED PKG", "MED PACK", "LG CASE", "LG BOX",
              "LG PACK", "LG PKG")
SEASONS = ("Winter", "Spring", "Summer", "Fall", "Christmas")

DATE_START = _dt.date(1992, 1, 1)
DATE_END = _dt.date(1998, 12, 31)
NUM_DATES = (DATE_END - DATE_START).days + 1  # 2557 (1992 and 1996 are leap years)

MONTH_NAMES = ("January", "February", "March", "April", "May", "June",
               "July", "August", "September", "October", "November",
               "December")
DAY_NAMES = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday",
             "Saturday", "Sunday")


def city_name(nation: str, digit: int) -> str:
    """SSB city: first nine characters of the nation plus one digit."""
    return f"{nation[:9]:<9}{digit}"


def customer_count(scale_factor: float) -> int:
    return max(30, int(round(30_000 * scale_factor)))


def supplier_count(scale_factor: float) -> int:
    return max(10, int(round(2_000 * scale_factor)))


def part_count(scale_factor: float) -> int:
    if scale_factor >= 1:
        return int(200_000 * (1 + math.log2(scale_factor)))
    return max(40, int(round(200_000 * scale_factor)))


def lineorder_count(scale_factor: float) -> int:
    return max(100, int(round(6_000_000 * scale_factor)))


@dataclass
class SSBData:
    """All five generated tables, as lists of schema-ordered tuples."""

    scale_factor: float
    seed: int
    customer: list[tuple] = field(default_factory=list)
    supplier: list[tuple] = field(default_factory=list)
    part: list[tuple] = field(default_factory=list)
    date: list[tuple] = field(default_factory=list)
    lineorder: list[tuple] = field(default_factory=list)

    def tables(self) -> dict[str, list[tuple]]:
        return {"customer": self.customer, "supplier": self.supplier,
                "part": self.part, "date": self.date,
                "lineorder": self.lineorder}


class SSBGenerator:
    """Generates SSB tables deterministically.

    >>> gen = SSBGenerator(scale_factor=0.001, seed=42)
    >>> data = gen.generate()
    >>> len(data.date)
    2557
    """

    def __init__(self, scale_factor: float = 0.01, seed: int = 42):
        if scale_factor <= 0:
            raise ValueError("scale factor must be positive")
        self.scale_factor = scale_factor
        self.seed = seed

    # -- dimensions ------------------------------------------------------- #

    def gen_customer(self) -> list[tuple]:
        rng = random.Random(f"{self.seed}:customer")
        rows = []
        for key in range(1, customer_count(self.scale_factor) + 1):
            nation, region = NATIONS[rng.randrange(len(NATIONS))]
            city = city_name(nation, rng.randrange(10))
            rows.append((
                key,
                f"Customer#{key:09d}",
                f"Address-{rng.randrange(10**6):06d}",
                city,
                nation,
                region,
                f"{10 + rng.randrange(25)}-{rng.randrange(1000):03d}-"
                f"{rng.randrange(1000):03d}-{rng.randrange(10000):04d}",
                MKT_SEGMENTS[rng.randrange(len(MKT_SEGMENTS))],
            ))
        return rows

    def gen_supplier(self) -> list[tuple]:
        rng = random.Random(f"{self.seed}:supplier")
        rows = []
        for key in range(1, supplier_count(self.scale_factor) + 1):
            nation, region = NATIONS[rng.randrange(len(NATIONS))]
            city = city_name(nation, rng.randrange(10))
            rows.append((
                key,
                f"Supplier#{key:09d}",
                f"Address-{rng.randrange(10**6):06d}",
                city,
                nation,
                region,
                f"{10 + rng.randrange(25)}-{rng.randrange(1000):03d}-"
                f"{rng.randrange(1000):03d}-{rng.randrange(10000):04d}",
            ))
        return rows

    def gen_part(self) -> list[tuple]:
        rng = random.Random(f"{self.seed}:part")
        rows = []
        for key in range(1, part_count(self.scale_factor) + 1):
            mfgr_num = 1 + rng.randrange(5)
            cat_num = 1 + rng.randrange(5)
            brand_num = 1 + rng.randrange(40)
            mfgr = f"MFGR#{mfgr_num}"
            category = f"MFGR#{mfgr_num}{cat_num}"
            brand = f"{category}{brand_num}"
            color = COLORS[rng.randrange(len(COLORS))]
            ptype = (f"{TYPES[rng.randrange(len(TYPES))]} "
                     f"{TYPE_MATERIALS[rng.randrange(len(TYPE_MATERIALS))]}")
            rows.append((
                key,
                f"{color} {ptype.lower()}",
                mfgr,
                category,
                brand,
                color,
                ptype,
                1 + rng.randrange(50),
                CONTAINERS[rng.randrange(len(CONTAINERS))],
            ))
        return rows

    def gen_date(self) -> list[tuple]:
        rows = []
        holidays = {(1, 1), (7, 4), (12, 25), (12, 31), (11, 28)}
        for ordinal in range(NUM_DATES):
            day = DATE_START + _dt.timedelta(days=ordinal)
            datekey = day.year * 10_000 + day.month * 100 + day.day
            weekday = day.weekday()  # Monday == 0
            month_name = MONTH_NAMES[day.month - 1]
            season = self._season(day)
            rows.append((
                datekey,
                day.strftime("%B %d, %Y"),
                DAY_NAMES[weekday],
                month_name,
                day.year,
                day.year * 100 + day.month,
                f"{month_name[:3]}{day.year}",
                weekday + 1,
                day.day,
                day.timetuple().tm_yday,
                day.month,
                int(day.strftime("%W")) + 1,
                season,
                1 if weekday == 6 else 0,
                1 if (day + _dt.timedelta(days=1)).day == 1 else 0,
                1 if (day.month, day.day) in holidays else 0,
                1 if weekday < 5 else 0,
            ))
        return rows

    @staticmethod
    def _season(day: _dt.date) -> str:
        if day.month == 12:
            return "Christmas"
        if day.month in (1, 2):
            return "Winter"
        if day.month in (3, 4, 5):
            return "Spring"
        if day.month in (6, 7, 8):
            return "Summer"
        return "Fall"

    # -- fact ---------------------------------------------------------------- #

    def iter_lineorder(self, num_customers: int, num_suppliers: int,
                       num_parts: int,
                       date_keys: list[int]) -> Iterator[tuple]:
        """Stream fact rows without materializing the whole table."""
        rng = random.Random(f"{self.seed}:lineorder")
        total = lineorder_count(self.scale_factor)
        # One shared object per repeated key or measure: a compact table.
        cust_keys = list(range(1, num_customers + 1))
        part_keys = list(range(1, num_parts + 1))
        shared: dict[int, int] = {}

        def share(value: int) -> int:
            return shared.setdefault(value, value)
        produced = 0
        orderkey = 0
        while produced < total:
            orderkey += 1
            num_lines = min(1 + rng.randrange(7), total - produced)
            custkey = cust_keys[rng.randrange(num_customers)]
            orderdate = date_keys[rng.randrange(len(date_keys))]
            priority = ORDER_PRIORITIES[rng.randrange(
                len(ORDER_PRIORITIES))]
            order_total = 0
            lines = []
            for linenumber in range(1, num_lines + 1):
                quantity = 1 + rng.randrange(50)
                unit_price = 900 + rng.randrange(1_000)
                extended = share(quantity * unit_price)
                discount = rng.randrange(11)       # 0..10 percent
                tax = rng.randrange(9)             # 0..8 percent
                revenue = share(extended * (100 - discount) // 100)
                supplycost = unit_price * 6 // 10
                order_total += extended
                lines.append((quantity, extended, discount, tax, revenue,
                              supplycost, linenumber))
            for quantity, extended, discount, tax, revenue, supplycost, \
                    linenumber in lines:
                commitdate = date_keys[min(len(date_keys) - 1,
                                           rng.randrange(len(date_keys)))]
                yield (
                    orderkey,
                    linenumber,
                    custkey,
                    part_keys[rng.randrange(num_parts)],
                    1 + rng.randrange(num_suppliers),
                    orderdate,
                    priority,
                    0,
                    quantity,
                    extended,
                    order_total,
                    discount,
                    revenue,
                    share(supplycost * quantity),
                    tax,
                    commitdate,
                    SHIP_MODES[rng.randrange(len(SHIP_MODES))],
                )
                produced += 1

    # -- driver ---------------------------------------------------------------- #

    def generate(self) -> SSBData:
        """Generate all five tables."""
        data = SSBData(scale_factor=self.scale_factor, seed=self.seed)
        data.customer = self.gen_customer()
        data.supplier = self.gen_supplier()
        data.part = self.gen_part()
        data.date = self.gen_date()
        date_keys = [row[0] for row in data.date]
        data.lineorder = list(self.iter_lineorder(
            len(data.customer), len(data.supplier), len(data.part),
            date_keys))
        return data
