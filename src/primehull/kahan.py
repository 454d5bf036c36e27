"""Compensated (Kahan) float summation."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class KahanSum:
    """Running compensated sum; (total, compensation) is the whole state."""

    total: float = 0.0
    compensation: float = 0.0

    def add(self, value: float) -> None:
        y = value - self.compensation
        t = self.total + y
        self.compensation = (t - self.total) - y
        self.total = t

    @property
    def value(self) -> float:
        return self.total
