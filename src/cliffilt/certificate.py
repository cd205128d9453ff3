"""Structured pass/fail results for the verification routines.

A certificate is truthy exactly when the check passed.  The witness of
a failing certificate is a plain dict of JSON-compatible values that
identifies the first violated constraint.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Certificate:
    check: str
    passed: bool
    witness: dict | None = None

    def __bool__(self) -> bool:
        return self.passed

    def to_json_obj(self) -> dict:
        return {"check": self.check, "pass": self.passed, "witness": self.witness}


def passing(check: str) -> Certificate:
    return Certificate(check, True, None)


def failing(check: str, **witness) -> Certificate:
    return Certificate(check, False, witness)


class CheckFailed(ValueError):
    """An input failed the check that a computation on it requires."""

    def __init__(self, what: str, cert: Certificate):
        super().__init__(f"{what} invalid: {cert.witness}")
        self.certificate = cert


def require(what: str, cert: Certificate) -> None:
    """Raise CheckFailed, carrying cert, unless cert passed."""
    if not cert:
        raise CheckFailed(what, cert)
