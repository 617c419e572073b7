"""Three-valued verdicts and rule reports shared by the calculus modules,
and the literal values of query fields shared by the engines and `runner`."""

from __future__ import annotations

from typing import Any

from ._record import record

HOLDS = "holds"
FAILS = "fails"
UNKNOWN = "unknown"

# cone kinds; subdifferentials take KIND_FRECHET, KIND_LIMITING, KIND_HORIZON
KIND_PROXIMAL = "proximal"
KIND_FRECHET = "frechet"
KIND_LIMITING = "limiting"
KIND_HORIZON = "horizon"
# which index pairing the mixed product rule uses
PAIRING_PROOF = "proof"
PAIRING_STATEMENT = "statement"
# which inner condition the sum and chain rules check
VARIANT_SEMICONTINUOUS = "semicontinuous"
VARIANT_SEMICOMPACT = "semicompact"


@record
class TriVerdict:
    """Holds / Fails / Unknown with an exact certificate where decisive."""

    value: str
    certificate: Any = None

    @staticmethod
    def holds(certificate: Any = None) -> "TriVerdict":
        return TriVerdict(HOLDS, certificate)

    @staticmethod
    def fails(certificate: Any = None) -> "TriVerdict":
        return TriVerdict(FAILS, certificate)

    @staticmethod
    def unknown(certificate: Any = None) -> "TriVerdict":
        return TriVerdict(UNKNOWN, certificate)

    def is_holds(self) -> bool:
        return self.value == HOLDS

    def is_fails(self) -> bool:
        return self.value == FAILS


@record
class RuleReport:
    """Both sides of a calculus rule plus the checked hypotheses.

    `witness` is present exactly when inclusion_holds is False and then lies
    in lhs \\ rhs; when some hypothesis is not Holds the report is diagnostic
    and makes no claim about the rule.
    """

    rule_id: str
    lhs: Any
    rhs: Any
    qualifications: tuple[tuple[str, TriVerdict], ...] = ()
    inclusion_holds: bool = True
    equality_holds: bool | None = None
    witness: Any = None

    def hypotheses_hold(self) -> bool:
        return all(v.is_holds() for _, v in self.qualifications)
