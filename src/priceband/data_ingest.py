"""Load, validate, clip, normalize, and featurize half-hourly market data.

Input CSV schema: ``timestamp,price,demand,temperature,irradiance,wind_speed,
gas_price,coal_price`` with ISO-8601 timestamps on a 30-minute grid. Days with
any missing half-hour are dropped and counted in the load report; prices are
clipped to [0, 500] A$/MWh before normalization. Timestamps are taken as
market-local time as written; half-hour index 0 is 00:00. The complete days
are kept as one C-contiguous float64 ``[days, 48]`` array per channel, row k
holding day k's half-hours. Each day with a complete previous day is one
row of the dataset's day axis: a float64 condition row of ``CONDITION_DIM``
columns (``build_conditions``) and a 48-step normalized price target.

Every parse goes through ``_read_rows``: one ``csv.reader`` pass that
checks each row in full when it reads it and holds the values in one flat
float64 array. It raises the first error in the file, with its physical
line.

A parse leaves a sidecar beside the file, ``.<file name>.priceband-cache``:
the SHA-256 of the file's bytes, then each row's local wall-clock minute
since 1970 and its seven values as raw little-endian arrays. A later load
whose bytes hash to the stored digest reads the rows from it instead of
parsing; any other sidecar (another digest or format, a wrong size,
non-finite values, minutes that do not strictly increase) is ignored and
replaced after the parse. Hit and parse derive the dataset in one function,
so they give the same bits. The sidecar is written only when the file's
bytes are unchanged after the parse, through ``replaced``; when its
directory cannot be written the load goes on without it, and deleting it is
always safe.

``replaced`` is the package's one way to write a file: the sidecar, the
checkpoint and every CLI artifact go to a tmp file beside the target that
is moved over it whole, or deleted when the write fails.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import math
import os
import stat
from array import array
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass, field
from datetime import date as date_type
from datetime import datetime, timedelta
from operator import attrgetter
from pathlib import Path

import numpy as np

from .errors import InputError, MalformedRow

HALF_HOURS_PER_DAY = 48

PRICE_CLIP_LO = 0.0
PRICE_CLIP_HI = 500.0

HDD_CDD_BASE_C = 18.0

_VALUE_CHANNELS = (
    "price",
    "demand",
    "temperature",
    "irradiance",
    "wind_speed",
    "gas_price",
    "coal_price",
)

CSV_COLUMNS = ("timestamp", *_VALUE_CHANNELS)

# Channels whose min-max params are fitted from the loaded data. Price is
# normalized against the fixed clip bounds instead, so a spike at A$350/MWh
# always lands at 0.7 regardless of what the file happens to contain.
_FITTED_CHANNELS = (
    "demand",
    "temperature",
    "irradiance",
    "wind_speed",
    "gas_price",
    "coal_price",
)


@dataclass(frozen=True)
class MinMaxParams:
    """Bounds for the affine [0,1] rescaling of one channel."""

    p_min: float
    p_max: float

    def __post_init__(self):
        if not (self.p_max > self.p_min):
            raise InputError(f"p_max ({self.p_max}) must exceed p_min ({self.p_min})")


CONDITION_DIM = 5 * HALF_HOURS_PER_DAY + 7 + 12 + 4


@dataclass(frozen=True)
class LoadReport:
    """Row and day accounting for one ingestion run."""

    rows_consumed: int
    days_loaded: int
    days_dropped: int
    dropped_days: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class Dataset:
    """Complete days as one array per channel, the normalization params and
    the day axis; equal only to itself (arrays have no one truth value).

    ``days`` lists every complete source day in order; row k of each
    C-contiguous float64 ``[len(days), 48]`` array in ``channels`` holds the
    samples of ``days[k]``, prices clipped. The day axis has one row per day
    with a complete previous calendar day: ``target_days[i]``, which is
    ``days[target_rows[i]]``, is predicted from ``conditions[i]`` (``[N,
    CONDITION_DIM]``) and has the normalized prices ``targets[i]``.
    """

    days: tuple[date_type, ...]
    channels: dict[str, np.ndarray]
    norm: dict[str, MinMaxParams]
    report: LoadReport
    conditions: np.ndarray
    targets: np.ndarray
    target_rows: np.ndarray
    _rows: dict[date_type, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_rows", {day: i for i, day in enumerate(self.target_days)})

    @property
    def n_days(self) -> int:
        return len(self.days)

    @property
    def target_days(self) -> tuple[date_type, ...]:
        return tuple(self.days[k] for k in self.target_rows.tolist())

    def target_index(self, day: date_type) -> int:
        """Row of the day axis that predicts ``day``; raises ``InputError``
        naming ``day`` or its previous day when either is not complete."""
        if day not in self._rows:
            # every complete day whose previous day is complete has a row
            for needed in (day, day - timedelta(days=1)):
                if needed not in self.days:
                    raise InputError(f"no complete day {needed.isoformat()} in dataset")
        return self._rows[day]

    # Views in the shape of the per-day records the dataset once held. Only
    # the benchmark (bench/workloads.py) reads them; drop them when it reads
    # the channel arrays.
    @property
    def day_records(self) -> tuple:
        return tuple(_DayView(day, k) for k, day in enumerate(self.days))

    def normalized_channel(self, rec, name: str) -> np.ndarray:
        return normalize(self.channels[name][rec.row], self.norm[name])


_DayView = namedtuple("_DayView", "day row")


def normalize(values: np.ndarray, params: MinMaxParams) -> np.ndarray:
    """Affine map (p - p_min)/(p_max - p_min); clipped inputs land in [0, 1]."""
    vals = np.asarray(values, dtype=np.float64)
    return (vals - params.p_min) / (params.p_max - params.p_min)


def denormalize(normalized: np.ndarray, params: MinMaxParams) -> np.ndarray:
    """Inverse of :func:`normalize`."""
    vals = np.asarray(normalized, dtype=np.float64)
    return vals * (params.p_max - params.p_min) + params.p_min


def compute_hdd_cdd(temps, base: float = HDD_CDD_BASE_C):
    """Heating and cooling degree days of the daily mean temperature against
    ``base`` (°C), over the last axis of ``temps``: one day's samples, or a
    ``[days, samples]`` array giving one value per day.

    hdd = max(0, base - mean(T)), cdd = max(0, mean(T) - base); at most one of
    the two is nonzero.
    """
    temps = np.asarray(temps, dtype=np.float64)
    if temps.size == 0:
        raise InputError("temperature list is empty")
    mean = temps.mean(axis=-1)
    return np.maximum(0.0, base - mean), np.maximum(0.0, mean - base)


def build_conditions(
    channels: dict[str, np.ndarray],
    days: Sequence[date_type],
    prev_rows,
    rows,
    norm: dict[str, MinMaxParams],
) -> np.ndarray:
    """Condition rows ``[N, CONDITION_DIM]``: row i encodes the day in row
    ``rows[i]`` of the ``[days, 48]`` ``channels`` (its date ``days[rows[i]]``)
    given its previous day in row ``prev_rows[i]``.

    Lags and fuel prices come from the previous day; the weather blocks come
    from the day itself (the ingested observations stand in for a day-ahead
    forecast), so nothing else from the target day enters a row. Normalized
    values are clipped to [0, 1]. Columns:

    ==========  ===================================================
    0:48        previous day's price
    48:96       previous day's demand
    96:103      day-of-week one-hot, Monday at 96
    103:115     month one-hot, January at 103
    115, 116    hdd, cdd of the day's mean temperature (degree days)
    117, 118    previous day's mean gas price, mean coal price
    119:167     temperature forecast
    167:215     irradiance forecast
    215:263     wind speed forecast
    ==========  ===================================================
    """
    def unit(at, name):
        return np.clip(normalize(channels[name][at], norm[name]), 0.0, 1.0)

    dates = [days[k] for k in rows]
    out = np.zeros((len(rows), CONDITION_DIM))
    index = np.arange(len(rows))
    out[:, 0:48] = unit(prev_rows, "price")
    out[:, 48:96] = unit(prev_rows, "demand")
    out[index, [96 + day.weekday() for day in dates]] = 1.0
    out[index, [103 + day.month - 1 for day in dates]] = 1.0
    out[:, 115], out[:, 116] = compute_hdd_cdd(channels["temperature"][rows])
    out[:, 117] = unit(prev_rows, "gas_price").mean(axis=1)
    out[:, 118] = unit(prev_rows, "coal_price").mean(axis=1)
    out[:, 119:167] = unit(rows, "temperature")
    out[:, 167:215] = unit(rows, "irradiance")
    out[:, 215:263] = unit(rows, "wind_speed")
    return out


def _parse_rows(path) -> tuple[list[datetime], np.ndarray]:
    """Row timestamps and a ``[rows, 7]`` float64 array of the
    ``_VALUE_CHANNELS``, read by ``_read_rows`` in one pass, so a named
    pipe reads as a regular file does."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read dataset {path} ({exc})") from exc
    with fh:
        return _read_rows(fh, path)


def _read_rows(fh, path) -> tuple[list[datetime], np.ndarray]:
    """Read the open CSV in one ``csv.reader`` pass that checks each row in
    full as it reads it: the timestamp, its place on the 30-minute grid,
    its UTC offset (the first row's, or none when the first row has none),
    that it is later than the row before, then ``float`` of each channel's
    field and its finiteness, in ``_VALUE_CHANNELS`` order. The values go
    into one flat float64 array, returned as a ``[rows, 7]`` view of it.

    Columns are found by header name (the last of duplicate names wins and
    extra columns are ignored, as with ``csv.DictReader``), a field past the
    end of a short row reads as None, and blank lines are skipped. The first
    error in the file is the one raised, with its physical line.
    """
    stamps, values = [], array("d")
    try:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise InputError(f"{path} has no header row")
        position = {name: k for k, name in enumerate(header)}
        for column in CSV_COLUMNS:
            if column not in position:
                raise MalformedRow(1, f"header missing column {column!r}")
        ts_col = position["timestamp"]
        channels = [(name, position[name]) for name in _VALUE_CHANNELS]
        width = 1 + max(position[name] for name in CSV_COLUMNS)

        for row in reader:
            if not row:
                continue
            if len(row) < width:
                row += [None] * (width - len(row))
            try:
                ts = datetime.fromisoformat(row[ts_col].strip())
            except (ValueError, AttributeError) as exc:
                raise MalformedRow(reader.line_num, f"bad timestamp: {exc}") from exc
            if ts.minute not in (0, 30) or ts.second or ts.microsecond:
                raise MalformedRow(reader.line_num, f"timestamp {ts} is off the 30-minute grid")
            if not stamps:
                first_offset = ts.utcoffset()
            elif ts.utcoffset() != first_offset:
                detail = f"UTC offset {ts.utcoffset()} differs from the first row's {first_offset}"
                raise MalformedRow(reader.line_num, detail)
            elif ts <= stamps[-1]:
                raise MalformedRow(reader.line_num, f"timestamp {ts} does not follow {stamps[-1]}")
            for name, k in channels:
                raw = row[k]
                try:
                    value = float(raw)
                except (TypeError, ValueError) as exc:
                    raise MalformedRow(reader.line_num, f"bad {name} value {raw!r}") from exc
                if not math.isfinite(value):
                    raise MalformedRow(reader.line_num, f"non-finite {name} value")
                values.append(value)
            stamps.append(ts)
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise MalformedRow(reader.line_num, f"unreadable CSV record: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read dataset {path} (not UTF-8 text: {exc.reason})") from exc
    return stamps, np.frombuffer(values, dtype=np.float64).reshape(-1, len(_VALUE_CHANNELS))


# A sidecar is this header (magic, the dataset's SHA-256, the row count as
# little-endian uint64), then every row's minute as little-endian int64 and
# the ``[rows, 7]`` values as little-endian float64. A new layout takes a new
# magic, so an old sidecar is a miss.
_CACHE_MAGIC = b"priceband-rows/1"
_CACHE_HEADER_BYTES = len(_CACHE_MAGIC) + 32 + 8
_CACHE_ROW_BYTES = 8 * (1 + len(_VALUE_CHANNELS))
_MINUTE_DTYPE = np.dtype("<i8")
_VALUE_DTYPE = np.dtype("<f8")
_HASH_CHUNK_BYTES = 1 << 16

_MINUTES_PER_DAY = 24 * 60
_EPOCH_ORDINAL = date_type(1970, 1, 1).toordinal()


def _sidecar_path(path) -> Path:
    path = Path(path)
    return path.with_name(f".{path.name}.priceband-cache")


def _file_digest(path) -> bytes | None:
    """SHA-256 of the file's bytes, streamed through one 64 KiB buffer; None
    for a path that is not a regular file, such as a named pipe, which can be
    read only once and so is parsed without a sidecar."""
    digest = hashlib.sha256()
    buffer = bytearray(_HASH_CHUNK_BYTES)
    view = memoryview(buffer)
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None
        with open(path, "rb", buffering=0) as fh:
            while size := fh.readinto(buffer):
                digest.update(view[:size])
    except OSError as exc:
        raise InputError(f"cannot read dataset {path} ({exc})") from exc
    return digest.digest()


def _read_sidecar(path, digest: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """The minutes and values stored beside ``path`` for ``digest``, or None
    when there is no usable sidecar: none is readable, its magic or digest
    differs, its size is not its row count's, or it holds a non-finite value
    or minutes that do not strictly increase."""
    n_channels = len(_VALUE_CHANNELS)
    try:
        with open(_sidecar_path(path), "rb") as fh:
            header = fh.read(_CACHE_HEADER_BYTES)
            rows = int.from_bytes(header[-8:], "little")
            if (
                len(header) != _CACHE_HEADER_BYTES
                or header[: len(_CACHE_MAGIC)] != _CACHE_MAGIC
                or header[len(_CACHE_MAGIC) : -8] != digest
                or rows == 0
                or os.fstat(fh.fileno()).st_size != _CACHE_HEADER_BYTES + rows * _CACHE_ROW_BYTES
            ):
                return None
            minutes = np.fromfile(fh, dtype=_MINUTE_DTYPE, count=rows)
            values = np.fromfile(fh, dtype=_VALUE_DTYPE, count=rows * n_channels)
    except (OSError, ValueError):
        return None
    if len(minutes) != rows or len(values) != rows * n_channels:  # shrunk while read
        return None
    if not (np.isfinite(values).all() and (np.diff(minutes) > 0).all()):
        return None
    return minutes.astype(np.int64, copy=False), values.reshape(rows, n_channels).astype(
        np.float64, copy=False
    )


@contextlib.contextmanager
def replaced(path):
    """A binary file that replaces ``path`` when the block ends: the
    directory is made, the bytes go to ``<name>.<pid>.tmp`` beside ``path``,
    and one rename moves it over ``path``, so a reader sees the old file or
    the whole new one. On any exception the tmp file is deleted and the
    exception raised again."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _write_sidecar(path, digest: bytes, minutes: np.ndarray, values: np.ndarray) -> None:
    """Store the rows parsed from the bytes hashed to ``digest`` beside
    ``path`` through ``replaced``, so a reader sees a whole sidecar or none.
    When the directory cannot be written, the load goes on without one."""
    with contextlib.suppress(OSError), replaced(_sidecar_path(path)) as fh:
        fh.write(_CACHE_MAGIC + digest + len(minutes).to_bytes(8, "little"))
        minutes.astype(_MINUTE_DTYPE, copy=False).tofile(fh)
        values.astype(_VALUE_DTYPE, copy=False).tofile(fh)


def _parse_minutes(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse the CSV: each row's local wall-clock minute since 1970 (int64)
    and the ``[rows, 7]`` float64 values. ``_read_rows`` has checked that
    the rows share one UTC offset and strictly increase, so their minutes
    do too."""
    stamps, values = _parse_rows(path)
    if not stamps:
        raise InputError(f"{path} contains no data rows")

    # one C-level map per field: a generator doing the arithmetic per row
    # took 40% longer
    ordinals, hours, mins = (
        np.fromiter(map(get, stamps), dtype=np.int64, count=len(stamps))
        for get in (datetime.toordinal, attrgetter("hour"), attrgetter("minute"))
    )
    return (ordinals - _EPOCH_ORDINAL) * _MINUTES_PER_DAY + hours * 60 + mins, values


def load_dataset(path) -> Dataset:
    """Parse a CSV into a :class:`Dataset`, or rebuild it from the sidecar
    that an earlier load of the same bytes left beside the file.

    Timestamps must be strictly increasing and share one UTC offset (or
    none), so each calendar day is one contiguous run of rows; a day without
    all 48 half-hours is dropped and counted. Prices are clipped to
    [PRICE_CLIP_LO, PRICE_CLIP_HI] and normalized against those bounds; the
    remaining channels get min-max params fitted on the loaded days (fit on
    your training file only to avoid leakage).

    Bytes that an earlier load parsed are read back from its sidecar (see
    the module docstring) instead of parsed; hit and parse both derive the
    dataset in ``_dataset_from_rows``, so they give the same bits.
    """
    digest = _file_digest(path)
    cached = _read_sidecar(path, digest) if digest else None
    if cached is not None:
        return _dataset_from_rows(path, *cached)
    minutes, values = _parse_minutes(path)
    if digest and _file_digest(path) == digest:  # the rows stored are the parse of those bytes
        _write_sidecar(path, digest, minutes, values)
    return _dataset_from_rows(path, minutes, values)


def _dataset_from_rows(path, minutes: np.ndarray, values: np.ndarray) -> Dataset:
    """The :class:`Dataset` of rows at strictly increasing local minutes
    since 1970 with ``[rows, 7]`` values: the day split, the per-channel day
    arrays with clipped prices, norms, load report, condition rows and
    targets."""
    day_numbers = minutes // _MINUTES_PER_DAY
    starts = np.flatnonzero(np.diff(day_numbers, prepend=day_numbers[0] - 1))
    complete = np.diff(starts, append=len(day_numbers)) == HALF_HOURS_PER_DAY
    dropped = tuple(
        date_type.fromordinal(_EPOCH_ORDINAL + n).isoformat()
        for n in day_numbers[starts[~complete]].tolist()
    )
    if not complete.any():
        raise InputError(f"{path} has no complete days")

    # one fancy index per channel gives a fresh [days, 48] array, so nothing
    # keeps the whole file's array alive
    first_rows = starts[complete]
    at = first_rows[:, None] + np.arange(HALF_HOURS_PER_DAY)
    channels = {name: values[at, c] for c, name in enumerate(_VALUE_CHANNELS)}
    np.clip(channels["price"], PRICE_CLIP_LO, PRICE_CLIP_HI, out=channels["price"])
    ordinals = day_numbers[first_rows] + _EPOCH_ORDINAL
    days = tuple(map(date_type.fromordinal, ordinals.tolist()))

    norm = {"price": MinMaxParams(PRICE_CLIP_LO, PRICE_CLIP_HI)}
    for name in _FITTED_CHANNELS:
        lo, hi = float(channels[name].min()), float(channels[name].max())
        if hi == lo:
            # constant channel: center it at 0.5 rather than rejecting the file
            lo, hi = lo - 0.5, hi + 0.5
        norm[name] = MinMaxParams(lo, hi)

    report = LoadReport(
        rows_consumed=len(minutes),
        days_loaded=len(days),
        days_dropped=len(dropped),
        dropped_days=dropped,
    )

    # a day with a complete previous calendar day is a row of the day axis
    target_rows = np.flatnonzero(np.diff(ordinals) == 1) + 1
    return Dataset(
        days=days,
        channels=channels,
        norm=norm,
        report=report,
        conditions=build_conditions(channels, days, target_rows - 1, target_rows, norm)
        if len(target_rows) else np.empty((0, CONDITION_DIM)),
        targets=normalize(channels["price"][target_rows], norm["price"]),
        target_rows=target_rows,
    )
