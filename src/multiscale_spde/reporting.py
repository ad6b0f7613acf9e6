"""Small report types shared by the coefficient and noise validators.

Validators never throw on a failed condition: the conditions they probe
are asymptotic statements, and at a finite truncation only evidence is
available, so each check records what was measured and a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckItem:
    name: str
    passed: bool
    value: float
    threshold: float | None = None
    note: str = ""


@dataclass
class CheckReport:
    title: str
    items: list[CheckItem] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def add(self, *args, **kwargs) -> None:
        self.items.append(CheckItem(*args, **kwargs))

    def as_rows(self) -> list[dict]:
        return [
            {
                "check": self.title,
                "item": it.name,
                "passed": it.passed,
                "value": it.value,
                "threshold": it.threshold,
                "note": it.note,
            }
            for it in self.items
        ]
