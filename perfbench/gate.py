"""Correctness gate: every timed operation is checked and counted."""

from __future__ import annotations


class Gate:
    """Counts attempted and failed operations.

    An operation fails when any of its checks reports a problem.  Byte
    images of deterministic outputs are compared with the first image seen
    under the same key in the run, so a field, CSV or trajectory that
    changes between rounds fails.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first: dict[str, bytes] = {}

    def same_as_first(self, key: str, data: bytes) -> list[str]:
        first = self._first.setdefault(key, data)
        return [] if first == data else [f"{key}: bytes differ from the first round"]

    def record(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{op}: {p}" for p in problems)

    @property
    def fail_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
