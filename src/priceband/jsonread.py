"""Typed reads of parsed JSON, the one place that checks a JSON input's types.

The config, ``thresholds.json``, ``model.json``, ``training_log.jsonl``
lines and the ``density_<date>.json`` that ``report`` copies read every
value through a ``Node``; nothing is converted from another type (README,
"JSON inputs"). A value of another type raises the file's error class as
``<file> <key path>: expected <what>, got <value>``.
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
        """A finite JSON number from ``low`` to ``high`` inclusive, as a float;
        the error names the bounds when ``low`` is finite."""
        value = self.value
        if type(value) is int:  # compared exactly: no int up to the max overflows
            value = float(value) if abs(value) <= sys.float_info.max else math.inf
        ok = type(value) is float and math.isfinite(value) and low <= value <= high
        bound = f" in [{low:g}, {high:g}]" if math.isfinite(high) else f" >= {low:g}"
        self._check(ok, "a finite number" + (bound if math.isfinite(low) else ""))
        return value

    def integer(self, minimum: int | None = None) -> int:
        """A JSON integer, at least ``minimum`` if one is given."""
        ok = type(self.value) is int and (minimum is None or self.value >= minimum)
        return self._check(ok, "an integer" + ("" if minimum is None else f" >= {minimum}"))

    def boolean(self) -> bool:
        return self._check(type(self.value) is bool, "true or false")

    def string(self) -> str:
        return self._check(type(self.value) is str, "a string")

    def items(self) -> list["Node"]:
        """The members of a JSON list of any length."""
        members = self._check(type(self.value) is list, "a list")
        return [Node(v, self.name, self.error, f"{self.path}[{k}]") for k, v in enumerate(members)]

    def numbers(self, n: int) -> list[float]:
        """A list of exactly ``n`` finite JSON numbers, as floats."""
        self._check(type(self.value) is list and len(self.value) == n, f"a list of {n} numbers")
        return [item.number() for item in self.items()]
