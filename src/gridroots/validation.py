"""Structured validation reporting.

Validators collect every problem they find rather than stopping at the
first, so a CLI run can print one actionable diagnostic list.  Each
finding has a stable machine-readable code plus a human message.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Finding:
    code: str
    message: str

    def as_dict(self) -> dict:
        return {"code": self.code, "message": self.message}


@dataclass
class ValidationReport:
    findings: list[Finding] = field(default_factory=list)

    def add(self, code: str, message: str) -> None:
        self.findings.append(Finding(code, message))

    @property
    def ok(self) -> bool:
        return not self.findings

    def codes(self) -> list[str]:
        return [f.code for f in self.findings]

    def merged(self, other: "ValidationReport") -> "ValidationReport":
        return ValidationReport(self.findings + other.findings)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "findings": [f.as_dict() for f in self.findings],
        }

