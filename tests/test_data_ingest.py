import csv
import json
import os
import random
import threading
import tracemalloc
from datetime import date

import numpy as np
import pytest

from priceband import cli
from priceband import data_ingest as di
from priceband import synthetic
from priceband.errors import InputError, MalformedRow

HEADER = "timestamp,price,demand,temperature,irradiance,wind_speed,gas_price,coal_price"


def write_csv(path, days, skip=None, shuffle=False, corrupt_line=None, prices=None):
    """Synthesize a minimal well-formed file; `skip` drops (day, slot) rows
    and `prices` maps (day, slot) to a price in place of the default ramp."""
    skip = skip or set()
    prices = prices or {}
    lines = [HEADER]
    for d in range(days):
        for k in range(48):
            if (d, k) in skip:
                continue
            ts = f"2021-03-{d + 1:02d}T{k // 2:02d}:{30 * (k % 2):02d}:00"
            price = prices.get((d, k), 40.0 + k + d)
            lines.append(f"{ts},{price},6000,18.5,400,5.0,8.0,90.0")
    if shuffle:
        lines[1], lines[5] = lines[5], lines[1]
    if corrupt_line is not None:
        parts = lines[corrupt_line].split(",")
        parts[1] = "not-a-number"
        lines[corrupt_line] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_load_two_full_days(tmp_path):
    ds = di.load_dataset(write_csv(tmp_path / "d.csv", days=2))
    assert ds.n_days == 2
    assert ds.report.rows_consumed == 96
    assert ds.report.days_dropped == 0
    assert len(ds.target_days) == 1  # a supervised pair needs the previous day


def test_missing_half_hour_drops_day(tmp_path):
    path = write_csv(tmp_path / "d.csv", days=2, skip={(0, 27)})  # 13:30 of day 1
    ds = di.load_dataset(path)
    assert ds.n_days == 1
    assert ds.report.days_dropped == 1
    assert ds.report.dropped_days == ("2021-03-01",)


def test_target_index_names_the_missing_day(tmp_path):
    """A day has a row of the day axis only when it and its previous day are
    complete; the lookup of any other day names the day that is missing."""
    ds = di.load_dataset(write_csv(tmp_path / "d.csv", days=4, skip={(1, 27)}))
    assert ds.target_days == (date(2021, 3, 4),)
    assert ds.conditions.shape == (1, di.CONDITION_DIM)
    assert ds.targets.shape == (1, 48)
    assert ds.target_index(date(2021, 3, 4)) == 0
    for day, missing in (((2021, 3, 3), "2021-03-02"), ((2021, 3, 2), "2021-03-02"), ((2021, 3, 1), "2021-02-28")):
        with pytest.raises(InputError, match=f"no complete day {missing} in dataset"):
            ds.target_index(date(*day))


def test_shuffled_timestamps_rejected(tmp_path):
    with pytest.raises(InputError, match="does not follow"):
        di.load_dataset(write_csv(tmp_path / "d.csv", days=1, shuffle=True))


def test_malformed_value_reports_line_number(tmp_path):
    path = write_csv(tmp_path / "d.csv", days=1, corrupt_line=10)
    with pytest.raises(MalformedRow) as err:
        di.load_dataset(path)
    assert err.value.line_no == 11  # header is line 1


@pytest.mark.parametrize(
    "nan_line, message",
    [(None, "line 6: unreadable CSV record: field larger than field limit"),
     (3, "line 3: non-finite price value")],
    ids=["oversized-field", "earlier-nan-first"],
)
def test_oversized_field_is_a_malformed_row(tmp_path, nan_line, message):
    """A field longer than the csv module's limit is a named row error with
    its physical line, not a raw ``csv.Error``; an earlier row's error still
    comes first."""
    path = write_csv(tmp_path / "d.csv", days=1)
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[5] = lines[5].replace(",6000,", "," + "9" * (csv.field_size_limit() + 1) + ",")
    if nan_line is not None:
        parts = lines[nan_line - 1].split(",")
        parts[1] = "nan"
        lines[nan_line - 1] = ",".join(parts)
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(MalformedRow, match=f"^malformed row at {message}"):
        di.load_dataset(path)


def test_off_grid_timestamp_rejected(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(HEADER + "\n2021-03-01T00:17:00,40,6000,18,400,5,8,90\n", encoding="utf-8")
    with pytest.raises(MalformedRow, match="off the 30-minute grid"):
        di.load_dataset(path)


def test_non_utf8_file_rejected(tmp_path):
    path = write_csv(tmp_path / "d.csv", days=1)
    lines = path.read_bytes().split(b"\n")
    lines[1] = b"\xff\xfe" + lines[1]
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(InputError) as excinfo:
        di.load_dataset(path)
    assert str(excinfo.value).startswith(f"cannot read dataset {path} (not UTF-8 text")


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(HEADER + "\n", encoding="utf-8")
    with pytest.raises(InputError, match="no data rows"):
        di.load_dataset(path)


def test_clip_prices_bounds(tmp_path):
    """Prices load clipped to [0, 500] A$/MWh and normalise against those
    bounds, whatever the file holds."""
    path = write_csv(tmp_path / "d.csv", days=2, prices={(1, 0): -10.0, (1, 1): 700.0})
    ds = di.load_dataset(path)
    prices = ds.channels["price"][1]
    assert prices[0] == 0.0
    assert prices[1] == 500.0
    assert (prices[2:] == 40.0 + np.arange(2, 48) + 1).all()
    target = ds.targets[0]
    assert target[0] == 0.0
    assert target[1] == 1.0
    assert np.array_equal(di.normalize(prices, ds.norm["price"]), target)


def test_channels_are_one_array_per_channel(tmp_path):
    """Each channel is one float64 ``[days, 48]`` array of the complete days
    in file order, holding its own memory, so no array of the whole file
    outlives the load."""
    ds = di.load_dataset(write_csv(tmp_path / "d.csv", days=4, skip={(1, 27)}))
    assert ds.days == (date(2021, 3, 1), date(2021, 3, 3), date(2021, 3, 4))
    assert list(ds.channels) == list(di.CSV_COLUMNS[1:])
    for name, values in ds.channels.items():
        assert values.dtype == np.float64 and values.shape == (3, 48), name
        assert values.flags.c_contiguous and values.flags.owndata, name
    assert ds.channels["price"][1].tolist() == (40.0 + np.arange(48) + 2).tolist()
    assert ds.target_rows.tolist() == [2]


def test_datasets_compare_by_identity(toy_csv, toy_dataset):
    """``==`` on two loads of one corpus gives False instead of raising on
    the arrays' truth value; a dataset equals itself."""
    again = di.load_dataset(toy_csv)
    assert (again == toy_dataset) is False
    assert (again != toy_dataset) is True
    assert again == again


def test_normalize_boundary_values():
    params = di.MinMaxParams(0.0, 500.0)
    assert di.normalize(np.array([0.0]), params)[0] == 0.0
    assert di.normalize(np.array([250.0]), params)[0] == 0.5
    assert di.normalize(np.array([500.0]), params)[0] == 1.0


def test_normalize_monotone():
    params = di.MinMaxParams(0.0, 500.0)
    rng = np.random.default_rng(1)
    x = np.sort(rng.uniform(0, 500, 200))
    normed = di.normalize(x, params)
    assert (np.diff(normed) >= 0).all()


def test_degenerate_range_rejected():
    with pytest.raises(InputError, match="must exceed p_min"):
        di.MinMaxParams(10.0, 10.0)


def test_denormalize_round_trip():
    params = di.MinMaxParams(0.0, 500.0)
    rng = np.random.default_rng(2)
    prices = rng.uniform(0, 500, 1000)
    back = di.denormalize(di.normalize(prices, params), params)
    assert np.abs(back - prices).max() < 1e-9 * 500.0
    assert di.denormalize(np.array([0.0]), params)[0] == params.p_min
    assert di.denormalize(np.array([0.5]), params)[0] == 250.0


def test_hdd_cdd():
    assert di.compute_hdd_cdd([18.0, 18.0], base=18.0) == (0.0, 0.0)
    assert di.compute_hdd_cdd([23.0], base=18.0) == (0.0, 5.0)
    assert di.compute_hdd_cdd([15.0], base=18.0) == (3.0, 0.0)
    hdd, cdd = di.compute_hdd_cdd(np.linspace(10, 30, 48))
    assert hdd == 0.0 or cdd == 0.0
    with pytest.raises(InputError, match="temperature list is empty"):
        di.compute_hdd_cdd([])


def _two_days(tmp_path):
    return di.load_dataset(write_csv(tmp_path / "d.csv", days=2))


# Column blocks of a condition row, as ``build_conditions`` documents them.
DOW, MONTH = slice(96, 103), slice(103, 115)
HDD, CDD, GAS, COAL = 115, 116, 117, 118
UNIT_BLOCKS = (slice(0, 48), slice(48, 96), slice(119, 167), slice(167, 215), slice(215, 263))


def test_build_conditions_encoding(tmp_path):
    ds = _two_days(tmp_path)
    rows = di.build_conditions(ds.channels, ds.days, [0], [1], ds.norm)
    assert rows.shape == (1, di.CONDITION_DIM)
    row = rows[0]
    # 2021-03-02 is a Tuesday; March is month index 2
    assert np.flatnonzero(row[DOW]).tolist() == [1]
    assert np.flatnonzero(row[MONTH]).tolist() == [2]
    # a constant 18.5 °C day is half a cooling degree day and no heating
    assert (row[HDD], row[CDD]) == (0.0, 0.5)
    assert np.array_equal(row[0:48], di.normalize(ds.channels["price"][0], ds.norm["price"]))


def test_build_conditions_wednesday_january(tmp_path):
    path = tmp_path / "jan.csv"
    lines = [HEADER]
    for d, day in enumerate(("2021-01-05", "2021-01-06")):  # Wed the 6th
        for k in range(48):
            ts = f"{day}T{k // 2:02d}:{30 * (k % 2):02d}:00"
            lines.append(f"{ts},{40 + k},6000,{18 + d},400,5.0,8.0,90.0")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ds = di.load_dataset(path)
    row = di.build_conditions(ds.channels, ds.days, [0], [1], ds.norm)[0]
    assert np.flatnonzero(row[DOW]).tolist() == [2]
    assert np.flatnonzero(row[MONTH]).tolist() == [0]
    assert (row[HDD], row[CDD]) == (0.0, 1.0)  # 19 °C against the 18 °C base


def test_build_conditions_deterministic(tmp_path):
    ds = _two_days(tmp_path)
    a = di.build_conditions(ds.channels, ds.days, [0], [1], ds.norm)
    b = di.build_conditions(ds.channels, ds.days, [0], [1], ds.norm)
    assert a.tobytes() == b.tobytes()


def test_condition_normalized_entries_in_unit_range(toy_dataset):
    for row, target in zip(toy_dataset.conditions, toy_dataset.targets):
        assert row.shape == (di.CONDITION_DIM,)
        assert (target >= 0).all() and (target <= 1).all()
        for block in (*UNIT_BLOCKS, slice(GAS, COAL + 1)):
            assert (row[block] >= 0).all() and (row[block] <= 1).all()
        assert row[DOW].sum() == 1.0 and row[MONTH].sum() == 1.0
        assert row[HDD] >= 0.0 and row[CDD] >= 0.0 and row[HDD] * row[CDD] == 0.0


def consecutive_pairs(dataset):
    """(previous, current) rows of the day arrays one calendar day apart."""
    days = dataset.days
    return [(k - 1, k) for k in range(1, len(days)) if (days[k] - days[k - 1]).days == 1]


def test_load_dataset_conditions_equal_single_pair_build(toy_dataset):
    """The rows ``load_dataset`` builds in one pass are, bit for bit, the rows
    ``build_conditions`` builds one pair at a time."""
    pairs = consecutive_pairs(toy_dataset)
    assert [k for _, k in pairs] == toy_dataset.target_rows.tolist()
    for (prev, k), row in zip(pairs, toy_dataset.conditions):
        single = di.build_conditions(
            toy_dataset.channels, toy_dataset.days, [prev], [k], toy_dataset.norm
        )[0]
        assert row.tobytes() == single.tobytes()


def test_build_conditions_matches_per_day_encoding(toy_dataset):
    """Reference: each row assembled block by block from one day's samples."""
    norm, channels = toy_dataset.norm, toy_dataset.channels

    def unit(k, name):
        return np.clip(di.normalize(channels[name][k], norm[name]), 0.0, 1.0)

    for (prev, k), row in zip(consecutive_pairs(toy_dataset), toy_dataset.conditions):
        day = toy_dataset.days[k]
        mean_temp = float(channels["temperature"][k].mean())
        expected = np.concatenate([
            unit(prev, "price"),
            unit(prev, "demand"),
            np.eye(7)[day.weekday()],
            np.eye(12)[day.month - 1],
            [max(0.0, 18.0 - mean_temp), max(0.0, mean_temp - 18.0)],
            [float(unit(prev, "gas_price").mean()), float(unit(prev, "coal_price").mean())],
            unit(k, "temperature"),
            unit(k, "irradiance"),
            unit(k, "wind_speed"),
        ])
        assert row.tobytes() == expected.tobytes()


def test_constant_channel_gets_midpoint_norm(tmp_path):
    ds = _two_days(tmp_path)  # demand constant at 6000 in the fixture file
    normed = di.normalize(ds.channels["demand"], ds.norm["demand"])
    assert np.allclose(normed, 0.5)


# --- one-pass reader: physical lines and DictReader parity ---------------------------------

def test_malformed_value_line_number_counts_blank_lines(tmp_path):
    """A blank line before the bad row still counts as a line of the file."""
    path = write_csv(tmp_path / "d.csv", days=1, corrupt_line=9)
    lines = path.read_text(encoding="utf-8").split("\n")
    lines.insert(3, "")  # physical line 4; the bad value moves to line 11
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(MalformedRow, match="bad price value 'not-a-number'") as err:
        di.load_dataset(path)
    assert err.value.line_no == 11


def test_reader_matches_float_of_each_field(tmp_path):
    """Columns are found by name whatever their order, extra columns are
    ignored, blank lines skipped, and every value is float() of its field."""
    rng = np.random.default_rng(3)
    order = ["coal_price", "extra", "price", "timestamp", "wind_speed", "demand",
             "gas_price", "irradiance", "temperature"]
    lines = [",".join(order)]
    expected = {name: [] for name in di.CSV_COLUMNS[1:]}
    for d in range(2):
        for k in range(48):
            fields = {name: repr(float(v)) for name, v in zip(order, rng.uniform(0, 400, len(order)))}
            fields["timestamp"] = f"  2021-03-{d + 1:02d}T{k // 2:02d}:{30 * (k % 2):02d}:00 "
            fields["extra"] = "ignored"
            if k == 5:
                fields["demand"] = '" 6.5e3 "'  # quoted, padded
                fields["irradiance"] = "1_000"
            for name in expected:
                expected[name].append(float(fields[name].strip('"')))
            lines.append(",".join(fields[name] for name in order))
            if k == 20:
                lines.append("")
    path = tmp_path / "d.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ds = di.load_dataset(path)
    assert ds.report.rows_consumed == 96
    assert [day.isoformat() for day in ds.days] == ["2021-03-01", "2021-03-02"]
    for name, values in expected.items():
        got = ds.channels[name].ravel()
        want = np.asarray(values)
        if name == "price":
            want = np.clip(want, di.PRICE_CLIP_LO, di.PRICE_CLIP_HI)
        assert got.tobytes() == want.tobytes(), name


def test_non_finite_value_names_channel_and_physical_line(tmp_path):
    """The first bad field in file order wins: a non-finite demand on line 8
    is reported before an unparsable price further down."""
    path = write_csv(tmp_path / "d.csv", days=1, corrupt_line=20)
    lines = path.read_text(encoding="utf-8").split("\n")
    lines.insert(2, "")  # physical line 3
    parts = lines[7].split(",")
    parts[2] = "inf"  # demand on physical line 8
    lines[7] = ",".join(parts)
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(MalformedRow, match="non-finite demand value") as err:
        di.load_dataset(path)
    assert err.value.line_no == 8


def test_short_row_reports_missing_value(tmp_path):
    path = write_csv(tmp_path / "d.csv", days=1)
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[4] = ",".join(lines[4].split(",")[:3])
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(MalformedRow, match="bad temperature value None") as err:
        di.load_dataset(path)
    assert err.value.line_no == 5


def test_mixed_utc_offsets_rejected(tmp_path):
    path = write_csv(tmp_path / "d.csv", days=1)
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[-2] = lines[-2].replace(",", "+10:00,", 1)
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(
        MalformedRow, match="^malformed row at line 49: UTC offset 10:00:00 differs from the first row's None$"
    ):
        di.load_dataset(path)


# --- the row reader: each odd file's rows or its first error, pinned ------------------------

def _market_lines(days=3, seed=0):
    """Header and rows of ``days`` complete days of random values, each
    written as ``repr`` of its float."""
    rng = np.random.default_rng(seed)
    lines = [HEADER]
    for d in range(days):
        for k in range(48):
            ts = f"2021-03-{d + 1:02d}T{k // 2:02d}:{30 * (k % 2):02d}:00"
            values = rng.uniform(-20, 600, 7) * 10.0 ** rng.integers(-3, 4, 7)
            lines.append(",".join([ts, *map(repr, values.tolist())]))
    return lines


def _lf(lines):
    return ("\n".join(lines) + "\n").encode()


def _with_field(lines, row, col, text):
    lines = list(lines)
    parts = lines[row].split(",")
    parts[col] = text
    lines[row] = ",".join(parts)
    return lines


def _reordered(lines):
    """Columns shuffled, an ignored ``note`` column, and ``price`` given
    twice: the last one wins, so the first may hold anything."""
    order = [3, 1, 0, 5, 2, 7, 6, 4]
    out = ["note,price," + ",".join(HEADER.split(",")[k] for k in order)]
    for line in lines[1:]:
        parts = line.split(",")
        out.append("n/a,junk," + ",".join(parts[k] for k in order))
    return _lf(out)


def _inserted(lines, at, *extra):
    return lines[:at] + list(extra) + lines[at:]


def _after_line(data, line, text):
    """``data`` with ``text`` put after the terminator of line ``line``."""
    head = data.split(b"\n", line)
    return b"\n".join(head[:-1]) + b"\n" + text + head[-1]


def _utc_offsets(lines, offsets):
    return [lines[0]] + [
        line.replace(",", offsets(k) + ",", 1) for k, line in enumerate(lines[1:])
    ]


LINES = _market_lines()

# id -> (file bytes, what it loads as): a plain LF file that loads to the
# same dataset, or the (type, message, line) of the error the load raises
PARITY = {
    "lf": (_lf(LINES), _lf(LINES)),
    "crlf": (("\r\n".join(LINES) + "\r\n").encode(), _lf(LINES)),
    "no-final-newline": ("\n".join(LINES).encode(), _lf(LINES)),
    "reordered-extra-duplicate-columns": (_reordered(LINES), _lf(LINES)),
    "blank-lines": (_lf(_inserted(LINES, 7, "", "") + [""]), _lf(LINES)),
    "crlf-blank-lines": (("\r\n".join(_inserted(LINES, 3, "")) + "\r\n\r\n").encode(), _lf(LINES)),
    "whitespace-only-line": (
        _lf(_inserted(LINES, 9, "  ")),
        (MalformedRow, "malformed row at line 10: bad timestamp: Invalid isoformat string: ''", 10),
    ),
    "padded-timestamps": (_lf([LINES[0]] + [" " + ln.replace(",", "\t ,", 1) for ln in LINES[1:]]), _lf(LINES)),
    "padded-values": (_lf(_with_field(LINES, 4, 2, " \t4.5e2 \xa0")), _lf(_with_field(LINES, 4, 2, "450"))),
    "quoted-field": (_lf(_with_field(LINES, 4, 2, '" 6.5e3 "')), _lf(_with_field(LINES, 4, 2, "6500"))),
    "underscore-number": (_lf(_with_field(LINES, 6, 3, "1_000")), _lf(_with_field(LINES, 6, 3, "1000"))),
    "unicode-digits": (_lf(_with_field(LINES, 6, 3, "١٢")), _lf(_with_field(LINES, 6, 3, "12"))),
    "separator-padding": (
        _lf(_with_field(LINES, 6, 3, "12\x1f")),
        (MalformedRow, "malformed row at line 7: bad temperature value '12\\x1f'", 7),
    ),
    "nul": (
        _lf(_with_field(LINES, 6, 3, "1\x002")),
        (MalformedRow, "malformed row at line 7: bad temperature value '1\\x002'", 7),
    ),
    "lone-cr": (_after_line(_lf(LINES[:20]), 19, b"\r") + _lf(LINES[20:]), _lf(LINES)),
    "short-row": (
        _lf(LINES[:12] + [",".join(LINES[12].split(",")[:3])] + LINES[13:]),
        (MalformedRow, "malformed row at line 13: bad temperature value None", 13),
    ),
    "oversized-ignored-field": (
        _lf([LINES[0] + ",note"] + [ln + ",x" for ln in LINES[1:9]]
            + [LINES[9] + "," + "y" * (csv.field_size_limit() + 1)] + LINES[10:]),
        (
            MalformedRow,
            "malformed row at line 10: unreadable CSV record: "
            f"field larger than field limit ({csv.field_size_limit()})",
            10,
        ),
    ),
    "nan": (
        _lf(_with_field(LINES, 30, 5, "nan")),
        (MalformedRow, "malformed row at line 31: non-finite wind_speed value", 31),
    ),
    "inf": (
        _lf(_with_field(LINES, 30, 1, "-inf")),
        (MalformedRow, "malformed row at line 31: non-finite price value", 31),
    ),
    "overflow": (
        _lf(_with_field(LINES, 30, 1, "1e400")),
        (MalformedRow, "malformed row at line 31: non-finite price value", 31),
    ),
    "off-grid": (
        _lf(_with_field(LINES, 31, 0, "2021-03-01T15:17:00")),
        (MalformedRow, "malformed row at line 32: timestamp 2021-03-01 15:17:00 is off the 30-minute grid", 32),
    ),
    "bad-timestamp": (
        _lf(_with_field(LINES, 31, 0, "2021-03-01 25:00")),
        (MalformedRow, "malformed row at line 32: bad timestamp: hour must be in 0..23", 32),
    ),
    "utc-offset": (_lf(_utc_offsets(LINES, lambda k: "+10:00")), _lf(LINES)),
    "mixed-utc-offsets": (
        _lf(_utc_offsets(LINES, lambda k: "+10:00" if k < 100 else "+11:00")),
        (MalformedRow, "malformed row at line 102: UTC offset 11:00:00 differs from the first row's 10:00:00", 102),
    ),
    "one-utc-offset-in-a-naive-file": (
        _lf(_utc_offsets(LINES, lambda k: "+10:00" if k == 38 else "")),
        (MalformedRow, "malformed row at line 40: UTC offset 10:00:00 differs from the first row's None", 40),
    ),
    "repeated-timestamp": (
        _lf(_with_field(LINES, 19, 0, LINES[18].split(",")[0])),
        (
            MalformedRow,
            "malformed row at line 20: timestamp 2021-03-01 08:30:00 does not follow 2021-03-01 08:30:00",
            20,
        ),
    ),
    "back-in-time-before-a-bad-price": (
        _lf(_with_field(_with_field(LINES, 4, 0, "2021-03-01T00:30:00"), 99, 1, "x")),
        (
            MalformedRow,
            "malformed row at line 5: timestamp 2021-03-01 00:30:00 does not follow 2021-03-01 01:00:00",
            5,
        ),
    ),
    "bad-utf8": (
        _after_line(_lf(LINES), 1, b"\xff"),
        (InputError, "cannot read dataset {path} (not UTF-8 text: invalid start byte)", None),
    ),
    "bad-utf8-after-malformed-row": (
        _after_line(_lf(_with_field(LINES, 5, 2, "x")), 140, b"\xfe"),
        (MalformedRow, "malformed row at line 6: bad demand value 'x'", 6),
    ),
    "bad-utf8-after-non-finite-value": (
        _after_line(_lf(_with_field(LINES, 5, 2, "nan")), 140, b"\xfe"),
        (MalformedRow, "malformed row at line 6: non-finite demand value", 6),
    ),
    "header-only": (_lf(LINES[:1]), (InputError, "{path} contains no data rows", None)),
    "header-missing-column": (
        _lf([LINES[0].replace("demand", "load")] + LINES[1:]),
        (MalformedRow, "malformed row at line 1: header missing column 'demand'", 1),
    ),
    "empty-file": (b"", (InputError, "{path} has no header row", None)),
}


def _dataset_bits(ds):
    """Everything a ``Dataset`` holds, its arrays as bytes with dtype and shape."""
    def bits(a):
        return a.dtype.str, a.shape, a.tobytes()

    channels = tuple((name, bits(v), v.flags.c_contiguous) for name, v in ds.channels.items())
    return (
        ds.days, channels, ds.norm, ds.report, bits(ds.conditions), bits(ds.targets),
        bits(ds.target_rows), ds.target_days,
    )


def _outcome(load):
    try:
        return "loaded", _dataset_bits(load())
    except (InputError, MalformedRow) as exc:
        return "raised", type(exc), str(exc), getattr(exc, "line_no", None)


def _parsed_outcome(path):
    """``_outcome`` of a load that parses: any sidecar is removed first."""
    di._sidecar_path(path).unlink(missing_ok=True)
    return _outcome(lambda: di.load_dataset(path))


def _spy(monkeypatch, name):
    """Replace ``di.<name>`` with a wrapper that records each call's result."""
    calls = []
    original = getattr(di, name)

    def spy(*args):
        calls.append(None)  # counted when it raises too
        calls[-1] = original(*args)
        return calls[-1]

    monkeypatch.setattr(di, name, spy)
    return calls


@pytest.mark.parametrize("case", PARITY)
def test_row_reader_outcome(tmp_path, monkeypatch, case):
    """Each file loads to the bits of its plain LF twin, or fails with the
    pinned exception type, message and line. A second load gives the same
    outcome: from the sidecar after a load, from a second parse after a
    failure, which leaves no sidecar."""
    data, want = PARITY[case]
    path = tmp_path / "d.csv"
    path.write_bytes(data)
    got = _outcome(lambda: di.load_dataset(path))
    if isinstance(want, bytes):
        plain = tmp_path / "plain.csv"
        plain.write_bytes(want)
        assert got == _outcome(lambda: di.load_dataset(plain))
    else:
        kind, message, line = want
        assert got == ("raised", kind, message.format(path=path), line)
    assert di._sidecar_path(path).is_file() == (got[0] == "loaded")
    parses = _spy(monkeypatch, "_parse_rows")
    assert _outcome(lambda: di.load_dataset(path)) == got
    assert len(parses) == (0 if got[0] == "loaded" else 1)


_NOISE = b'",\r\n\0\x1f\xff \t-+.:0123456789eEnaTZ_x'


def _mutated(rng):
    """A clean file of three days (LF or CRLF, naive or at +10:00) with one
    to three random edits: a byte changed, put in or taken out; a line
    repeated, dropped or moved; or the UTC offset of one line or of every
    line changed."""
    lines = _market_lines(seed=rng.randrange(4))
    if rng.random() < 0.3:
        lines = _utc_offsets(lines, lambda k: "+10:00")
    newline = rng.choice([b"\n", b"\r\n"])
    head, *rows = [line.encode() + newline for line in lines]
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(7)
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows) + 1)
        if kind < 3:
            data = bytearray(b"".join(rows))
            k = rng.randrange(len(data))
            if kind == 0:
                data[k] = rng.choice(_NOISE)
            elif kind == 1:
                data.insert(k, rng.choice(_NOISE))
            else:
                del data[k]
            rows = [bytes(data)]
        elif kind == 3:
            rows.insert(j, rows[i])
        elif kind == 4 and len(rows) > 1:
            del rows[i]
        elif kind == 5:
            rows.insert(j, rows.pop(i))
        elif kind == 6:
            offset = rng.choice([b"", b"+11:00"])
            for k in rng.choice([[i], range(len(rows))]):
                stamp, comma, rest = rows[k].partition(b",")
                rows[k] = stamp.removesuffix(b"+10:00") + offset + comma + rest
    return head + b"".join(rows)


@pytest.mark.parametrize("seed", range(6))
def test_seeded_mutations_hit_as_they_parse(tmp_path, monkeypatch, seed):
    """50 mutated files per seed, each loaded twice: the second load gives
    the first one's outcome, from the sidecar when the first loaded; a file
    that fails leaves no sidecar. Each seed's files include some that load
    and some that fail."""
    rng = random.Random(seed)
    path = tmp_path / "d.csv"
    outcomes = set()
    for _ in range(50):
        path.write_bytes(_mutated(rng))
        want = _parsed_outcome(path)
        assert di._sidecar_path(path).is_file() == (want[0] == "loaded")
        parses = _spy(monkeypatch, "_parse_rows")
        assert _outcome(lambda: di.load_dataset(path)) == want
        assert len(parses) == (0 if want[0] == "loaded" else 1)
        monkeypatch.undo()
        outcomes.add(want[0])
    assert outcomes == {"loaded", "raised"}


def test_non_finite_value_is_raised_before_a_later_decode_error(tmp_path):
    """A non-finite demand on line 6 is the file's first error, so it is
    raised, not the undecodable byte in a later 8 KiB decode chunk."""
    path = tmp_path / "d.csv"
    path.write_bytes(PARITY["bad-utf8-after-non-finite-value"][0])
    assert path.read_bytes().index(b"\xfe") > 8192
    with pytest.raises(MalformedRow, match="^malformed row at line 6: non-finite demand value$") as err:
        di.load_dataset(path)
    assert err.value.line_no == 6


@pytest.fixture(scope="module")
def year_csv(tmp_path_factory):
    return synthetic.generate_market_csv(tmp_path_factory.mktemp("year") / "year.csv", days=366, seed=19)


def _load_peak(path) -> int:
    tracemalloc.start()
    try:
        di.load_dataset(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_year_corpus_load_memory(year_csv, monkeypatch):
    """A load that parses a one-year corpus peaks at 3.68 MB of tracemalloc,
    set after the parse by the channel arrays and condition rows (4.04 MB
    with seven small arrays per day, 4.75 MB while the parsed timestamps
    stayed alive through those). The 7.86 MB peak of a parse came from an
    older reader that held a Python list, a float tuple and a datetime per
    row; holding the values in one flat array, the parse peaks at 1.93 MB
    alone."""
    di.load_dataset(year_csv)
    di._sidecar_path(year_csv).unlink()
    parses = _spy(monkeypatch, "_parse_rows")
    peak = _load_peak(year_csv)
    assert len(parses) == 1
    assert peak < 5.5e6, f"peak {peak / 1e6:.2f} MB"


def test_year_corpus_hit_memory(year_csv, monkeypatch):
    """A load served by the sidecar reads the rows straight into their
    arrays and peaks at 3.62 MB of tracemalloc."""
    di.load_dataset(year_csv)
    parses = _spy(monkeypatch, "_parse_rows")
    peak = _load_peak(year_csv)
    assert parses == []
    assert peak < 4.5e6, f"peak {peak / 1e6:.2f} MB"


# --- the sidecar: a load of unchanged bytes skips the parse, bit for bit ----------------------

def _refuse_parse(monkeypatch):
    def refuse(path):
        raise AssertionError("dataset parsed")

    monkeypatch.setattr(di, "_parse_rows", refuse)


def _gappy_lines():
    """Random values over four days with a UTC offset and the second day
    short of a half-hour: a dropped day, and a day axis that skips it."""
    lines = _utc_offsets(_market_lines(days=5, seed=3), lambda k: "+10:00")
    return lines[:60] + lines[61:193]


@pytest.mark.parametrize("lines", [LINES, _gappy_lines()], ids=["plain", "gappy-utc-offset"])
def test_sidecar_hit_equals_parse(tmp_path, monkeypatch, lines):
    path = tmp_path / "d.csv"
    path.write_bytes(_lf(lines))
    want = _parsed_outcome(path)
    assert want[0] == "loaded"
    assert di._sidecar_path(path).is_file()
    _refuse_parse(monkeypatch)
    assert _outcome(lambda: di.load_dataset(path)) == want


def test_sidecar_hit_prints_the_same_load_report(tmp_path, monkeypatch, capsys):
    """calibrate over a sidecar prints what it prints over the parse and
    writes the same thresholds."""
    synthetic.generate_market_csv(tmp_path / "toy.csv", days=120, seed=11)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"paths": {
        "dataset": str(tmp_path / "toy.csv"), "out_dir": str(tmp_path / "out"),
    }}), encoding="utf-8")
    thresholds = tmp_path / "out" / "thresholds.json"
    outputs = []
    for _ in range(2):
        assert cli.main(["calibrate", "--config", str(cfg)]) == 0
        outputs.append((capsys.readouterr().out, thresholds.read_bytes()))
        _refuse_parse(monkeypatch)
    assert outputs[0][0].startswith("loaded 120 days from 5760 rows; dropped 0 incomplete days\n")
    assert outputs[1] == outputs[0]


def _edit_byte(path, old: bytes, new: bytes):
    data = path.read_bytes()
    path.write_bytes(data.replace(old, new, 1))


def test_edited_byte_misses_and_reparses(tmp_path, monkeypatch):
    path = tmp_path / "d.csv"
    path.write_bytes(_lf(LINES))
    first = di.load_dataset(path)
    field = LINES[40].split(",")[2]
    edited = field[:2] + ("5" if field[2] != "5" else "6") + field[3:]
    _edit_byte(path, field.encode(), edited.encode())
    parses = _spy(monkeypatch, "_parse_rows")
    got = _outcome(lambda: di.load_dataset(path))
    assert len(parses) == 1
    assert got != ("loaded", _dataset_bits(first))
    assert got == _parsed_outcome(path)
    del parses[:]
    assert _outcome(lambda: di.load_dataset(path)) == got
    assert parses == []


def test_edit_to_malformed_row_fails_as_without_sidecar(tmp_path):
    path = tmp_path / "d.csv"
    path.write_bytes(_lf(LINES))
    di.load_dataset(path)
    field = LINES[40].split(",")[2]
    _edit_byte(path, field.encode(), b"x" + field[1:].encode())
    got = _outcome(lambda: di.load_dataset(path))
    assert got == ("raised", MalformedRow, f"malformed row at line 41: bad demand value {'x' + field[1:]!r}", 41)
    assert got == _parsed_outcome(path)


def _rewrite(sidecar, offset, data):
    raw = bytearray(sidecar.read_bytes())
    raw[offset : offset + len(data)] = data
    sidecar.write_bytes(bytes(raw))


_ROWS = len(LINES) - 1
_MINUTES_AT = di._CACHE_HEADER_BYTES
_VALUES_AT = _MINUTES_AT + 8 * _ROWS

BAD_SIDECARS = {
    "truncated": lambda s: s.write_bytes(s.read_bytes()[:-1]),
    "header-only": lambda s: s.write_bytes(s.read_bytes()[:_MINUTES_AT]),
    "empty": lambda s: s.write_bytes(b""),
    "wrong-magic": lambda s: _rewrite(s, 0, b"X"),
    "wrong-digest": lambda s: _rewrite(s, len(di._CACHE_MAGIC), bytes(32)),
    "zero-rows": lambda s: s.write_bytes(s.read_bytes()[: _MINUTES_AT - 8] + bytes(8)),
    "trailing-bytes": lambda s: s.write_bytes(s.read_bytes() + b"\0"),
    "nan-value": lambda s: _rewrite(s, _VALUES_AT + 8 * 100, np.float64("nan").tobytes()),
    "inf-value": lambda s: _rewrite(s, _VALUES_AT, np.float64("inf").tobytes()),
    "repeated-minute": lambda s: _rewrite(s, _MINUTES_AT + 8, s.read_bytes()[_MINUTES_AT : _MINUTES_AT + 8]),
    "directory": lambda s: (s.unlink(), s.mkdir()),
}


@pytest.mark.parametrize("damage", BAD_SIDECARS)
def test_unusable_sidecar_is_ignored_and_rewritten(tmp_path, monkeypatch, damage):
    path = tmp_path / "d.csv"
    path.write_bytes(_lf(LINES))
    sidecar = di._sidecar_path(path)
    want = _outcome(lambda: di.load_dataset(path))
    good = sidecar.read_bytes()
    assert len(good) == di._CACHE_HEADER_BYTES + 64 * _ROWS
    BAD_SIDECARS[damage](sidecar)
    parses = _spy(monkeypatch, "_parse_rows")
    assert _outcome(lambda: di.load_dataset(path)) == want
    assert len(parses) == 1
    if damage != "directory":  # os.replace cannot put a file over a directory
        assert sidecar.read_bytes() == good
    assert sorted(p.name for p in tmp_path.iterdir()) == [sidecar.name, "d.csv"]


def test_failed_sidecar_write_leaves_no_file(tmp_path, monkeypatch):
    path = tmp_path / "d.csv"
    path.write_bytes(_lf(LINES))
    want = _parsed_outcome(path)
    di._sidecar_path(path).unlink()

    def refuse(src, dst):
        raise OSError("read-only directory")

    monkeypatch.setattr(di.os, "replace", refuse)
    assert _outcome(lambda: di.load_dataset(path)) == want
    assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]


def test_file_changed_during_parse_is_not_cached(tmp_path, monkeypatch):
    """The rows stored under a digest are the parse of those bytes: a file
    that changes while it is parsed leaves no sidecar."""
    path = tmp_path / "d.csv"
    path.write_bytes(_lf(LINES))
    parse = di._parse_rows

    def parse_then_append(p):
        parsed = parse(p)
        with open(p, "a", encoding="utf-8") as fh:
            fh.write(LINES[1].replace("2021-03-01", "2021-03-09") + "\n")
        return parsed

    monkeypatch.setattr(di, "_parse_rows", parse_then_append)
    di.load_dataset(path)
    assert not di._sidecar_path(path).exists()


def test_named_pipe_is_not_hashed(tmp_path):
    """A pipe can be read only once, so a dataset path that is not a regular
    file is not opened for the hash: it goes to the parser uncached."""
    fifo = tmp_path / "d.csv"
    os.mkfifo(fifo)
    digests = []
    worker = threading.Thread(target=lambda: digests.append(di._file_digest(fifo)), daemon=True)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive() and digests == [None]


def test_named_pipe_loads_as_the_regular_file(tmp_path):
    """A named pipe is read once by the row reader: it loads the same
    dataset as the regular file of the same bytes, and leaves no sidecar."""
    path = tmp_path / "d.csv"
    path.write_bytes(_lf(LINES))
    want = _parsed_outcome(path)
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),), daemon=True)
    writer.start()
    got = _outcome(lambda: di.load_dataset(fifo))
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert got == want
    assert sorted(p.name for p in tmp_path.iterdir()) == [di._sidecar_path(path).name, "d.csv", "pipe.csv"]
