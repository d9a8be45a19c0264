"""Typed reads of parsed JSON, the one place that checks a JSON input's types.

The config, ``thresholds.json``, ``model.json`` and ``training_log.jsonl``
lines read every value through a ``Node``; nothing is converted from another
type (README, "JSON inputs"). A value of another type raises the file's
error class as ``<file> <key path>: expected <what>, got <value>``.
"""

from __future__ import annotations

import json
import math
import sys
from typing import NoReturn

from .errors import PricebandError


def parse(text: str, name: str, error: type[PricebandError]) -> "Node":
    """The JSON document ``text`` of the file ``name``."""
    try:
        return Node(json.loads(text), name, error)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise error(f"{name}: not JSON ({exc})") from exc


class Node:
    """One value of a parsed JSON document: ``value`` sits at ``path`` of the
    file ``name``, and a read that finds another type raises ``error``."""

    def __init__(self, value, name: str, error: type[PricebandError], path: str = ""):
        self.value = value
        self.name = name
        self.error = error
        self.path = path

    def fail(self, detail: str) -> NoReturn:
        """Raise the file's error naming this value's key path."""
        raise self.error(f"{' '.join(filter(None, (self.name, self.path)))}: {detail}")

    def _check(self, ok: bool, what: str):
        if not ok:  # the value cut short: it may be 400 digits or a checkpoint's weights
            shown = json.dumps(self.value)
            self.fail(f"expected {what}, got {shown if len(shown) <= 40 else shown[:37] + '...'}")
        return self.value

    def get(self, key: str, default=...) -> "Node":
        """Member ``key`` of this object, else ``default``; with no default it raises."""
        member = Node(self.obj().get(key, default), self.name, self.error,
                      f"{self.path}.{key}" if self.path else key)
        if member.value is ...:
            member.fail("missing")
        return member

    __getitem__ = get

    def obj(self, keys=None) -> dict:
        """A JSON object; with ``keys``, one that holds no other member."""
        members = self._check(type(self.value) is dict, "an object")
        for key in sorted(members.keys() - set(keys or members)):
            self.fail(f"unknown key {key!r}")
        return members

    def number(self, low: float = -math.inf, high: float = math.inf) -> float:
        """A finite JSON number from ``low`` to ``high`` inclusive, as a float."""
        value = self.value
        if type(value) is int:  # compared exactly: no int up to the max overflows
            value = float(value) if abs(value) <= sys.float_info.max else math.inf
        ok = type(value) is float and math.isfinite(value) and low <= value <= high
        bounded = math.isfinite(low) and math.isfinite(high)
        self._check(ok, "a finite number" + (f" in [{low:g}, {high:g}]" if bounded else ""))
        return value

    def integer(self, minimum: int | None = None) -> int:
        """A JSON integer, at least ``minimum`` if one is given."""
        ok = type(self.value) is int and (minimum is None or self.value >= minimum)
        return self._check(ok, "an integer" + ("" if minimum is None else f" >= {minimum}"))

    def boolean(self) -> bool:
        return self._check(type(self.value) is bool, "true or false")

    def string(self) -> str:
        return self._check(type(self.value) is str, "a string")

    def numbers(self, n: int) -> list[float]:
        """A list of exactly ``n`` finite JSON numbers, as floats."""
        ok = type(self.value) is list and len(self.value) == n
        items = self._check(ok, f"a list of {n} numbers")
        return [Node(v, self.name, self.error, f"{self.path}[{k}]").number()
                for k, v in enumerate(items)]
