"""Arithmetic on (year, month) pairs with month in 1..12."""

from __future__ import annotations

import functools

Month = tuple[int, int]


def check_ym(ym: Month) -> Month:
    year, month = ym
    if not 1 <= month <= 12:
        raise ValueError(f"month must be in 1..12, got {month}")
    return int(year), int(month)


def add_months(ym: Month, n: int) -> Month:
    """Return the calendar month n steps after ym (n may be negative)."""
    year, month = check_ym(ym)
    return _month(year * 12 + (month - 1) + n)


@functools.lru_cache(maxsize=4096)
def _month(total: int) -> Month:
    """The pair for month count `total`, one shared tuple per month: forecasts
    kept from many eval passes then hold no new month tuples of their own.
    4096 months is 341 years, the whole ERSSTv5 record with room to spare."""
    return total // 12, total % 12 + 1


def month_range(start: Month, n: int) -> list[Month]:
    return [add_months(start, i) for i in range(n)]


def format_ym(ym: Month) -> str:
    year, month = check_ym(ym)
    return f"{year:04d}-{month:02d}"


def parse_ym(text: str) -> Month:
    """Parse 'YYYY-MM' into a (year, month) pair."""
    parts = text.split("-")
    if len(parts) != 2:
        raise ValueError(f"expected YYYY-MM, got {text!r}")
    return check_ym((int(parts[0]), int(parts[1])))
