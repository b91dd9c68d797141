import pytest

from ensograph.months import (
    add_months,
    check_ym,
    format_ym,
    month_range,
    parse_ym,
)


def test_check_ym_accepts_valid():
    assert check_ym((1950, 1)) == (1950, 1)
    assert check_ym((2020, 12)) == (2020, 12)


def test_check_ym_rejects_bad_month():
    with pytest.raises(ValueError):
        check_ym((1950, 0))
    with pytest.raises(ValueError):
        check_ym((1950, 13))


def test_add_months_wraps_years():
    assert add_months((1973, 12), 1) == (1974, 1)
    assert add_months((1950, 1), -1) == (1949, 12)
    assert add_months((1950, 6), 0) == (1950, 6)
    assert add_months((1871, 1), 1235) == (1973, 12)


def test_add_months_round_trip():
    for n in range(-30, 31):
        ym = add_months((1980, 7), n)
        assert ym[0] * 12 + ym[1] - (1980 * 12 + 7) == n
        assert add_months(ym, -n) == (1980, 7)


def test_add_months_shares_one_tuple_per_month():
    assert add_months((1999, 12), 2) is add_months((2000, 1), 1)
    assert month_range((1999, 11), 4)[2] is add_months((2000, 1), 0)


def test_month_range():
    months = month_range((1999, 11), 4)
    assert months == [(1999, 11), (1999, 12), (2000, 1), (2000, 2)]


def test_format_parse_round_trip():
    assert format_ym((1871, 1)) == "1871-01"
    assert parse_ym("1871-01") == (1871, 1)
    assert parse_ym(format_ym((2020, 12))) == (2020, 12)


def test_parse_rejects_garbage():
    for text in ("1871", "1871-13", "187a-01", "1871/01", ""):
        with pytest.raises(ValueError):
            parse_ym(text)
