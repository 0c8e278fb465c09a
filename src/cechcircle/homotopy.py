"""Homotopy types realizable by nerve complexes of circular arcs.

Every such complex is either an odd-dimensional sphere S^(2l+1) or a
bouquet of even-dimensional spheres wedge^a(S^2l); the wedge of zero
spheres is a single point, which has the one representation a = l = 0, and
the wedge of one sphere is the sphere itself.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError

ODD = "odd"
EVEN = "even"


@dataclass(frozen=True)
class HomotopyType:
    """Tagged homotopy type: OddSphere(l) = S^(2l+1), WedgeEven(a, l) = wedge^a(S^2l)."""

    kind: str
    l: int
    a: int | None = None  # wedge multiplicity; None for odd spheres

    def __post_init__(self):
        if self.kind not in (ODD, EVEN):
            raise DomainError(f"unknown kind {self.kind!r}")
        if self.l < 0:
            raise DomainError("l must be >= 0")
        if self.kind == EVEN:
            if self.a is None or self.a < 0:
                raise DomainError("even wedge needs a >= 0")
            if self.a == 0 and self.l != 0:
                raise DomainError("a wedge of no spheres is the point, with l = 0")
        elif self.a is not None:
            raise DomainError("odd sphere takes no wedge multiplicity")

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def odd_sphere(l: int) -> "HomotopyType":
        return HomotopyType(ODD, l)

    @staticmethod
    def wedge_even(a: int, l: int) -> "HomotopyType":
        """wedge^a(S^2l); the wedge of no spheres is the point, whatever l."""
        return HomotopyType(EVEN, l if a else 0, a)

    @staticmethod
    def point() -> "HomotopyType":
        return HomotopyType(EVEN, 0, 0)

    # -- derived invariants ----------------------------------------------------

    def euler_characteristic(self) -> int:
        if self.kind == ODD:
            return 0
        return self.a + 1

    def betti(self) -> tuple[int, ...]:
        """Betti numbers with trailing zeros trimmed (GF(2) = rational here)."""
        if self.kind == ODD:
            return (1,) + (0,) * (2 * self.l) + (1,)
        if self.l == 0:
            return (self.a + 1,)
        return (1,) + (0,) * (2 * self.l - 1) + (self.a,)

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        if self.kind == ODD:
            return {"kind": "odd", "l": self.l}
        return {"kind": "even", "a": self.a, "l": self.l}

    def display(self) -> str:
        if self.kind == ODD:
            return f"S^{2 * self.l + 1}"
        if self.a == 0:
            return "point"
        if self.a == 1:
            return f"S^{2 * self.l}"
        return f"wedge^{self.a}(S^{2 * self.l})"

    def sort_key(self) -> tuple:
        return (self.kind, self.l, -1 if self.a is None else self.a)

