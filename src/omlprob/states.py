"""States on finite OMLs: validation, the state polytope, classification."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .lattice import Oml
from .linear import (PolyInfo, Polytope, SystemBuilder, enumerate_vertices,
                     solve)
from .rational import fmt_rat, parse_rat


class StateError(Exception):
    """A candidate state violates one of the state axioms."""


class NotNormalized(StateError):
    pass


class OutOfRange(StateError):
    def __init__(self, x, value):
        self.element = x
        super().__init__("m(%s) = %s is outside [0, 1]" % (x, fmt_rat(value)))


class AdditivityFailure(StateError):
    def __init__(self, a, b, lhs, rhs):
        self.pair = (a, b)
        super().__init__(
            "m(%s v %s) = %s but m(%s) + m(%s) = %s"
            % (a, b, fmt_rat(lhs), a, b, fmt_rat(rhs)))


@dataclass(frozen=True)
class StateFn:
    """A total map element -> Fraction; candidate probability measure."""

    values: tuple  # ((element, Fraction), ...) in lattice element order

    def __post_init__(self):
        object.__setattr__(self, "_map", dict(self.values))

    def __call__(self, x: str) -> Fraction:
        return self._map[x]

    def as_dict(self) -> dict:
        return dict(self.values)

    @staticmethod
    def from_dict(l: Oml, values: dict) -> "StateFn":
        missing = [x for x in l.elements if x not in values]
        if missing:
            raise StateError("state not total; missing %s" % missing)
        extra = [x for x in values if x not in l.elements]
        if extra:
            raise StateError("state mentions unknown elements %s" % extra)
        return StateFn(tuple((x, Fraction(values[x])) for x in l.elements))

    @staticmethod
    def from_vector(l: Oml, vec) -> "StateFn":
        return StateFn(tuple(zip(l.elements, map(Fraction, vec))))

    def to_json(self) -> str:
        return json.dumps({x: fmt_rat(v) for x, v in self.values}, indent=2)


def state_from_json(l: Oml, text: str) -> StateFn:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise StateError("state file must be a JSON object")
    return StateFn.from_dict(l, {x: parse_rat(v) for x, v in data.items()})


def validate_state(l: Oml, s: StateFn) -> None:
    """Check the state axioms exhaustively; raise on the first violation.

    (i) m(1) = 1 (and hence m(0) = 0 is also enforced), values in [0,1];
    (ii) additivity m(a v b) = m(a) + m(b) over every orthogonal pair.
    """
    m = s.as_dict()
    for x in l.elements:
        if not 0 <= m[x] <= 1:
            raise OutOfRange(x, m[x])
    if m[l.top] != 1:
        raise NotNormalized("m(top) = %s != 1" % fmt_rat(m[l.top]))
    if m[l.bot] != 0:
        raise NotNormalized("m(bot) = %s != 0" % fmt_rat(m[l.bot]))
    for a, b in l.orthogonal_pairs():
        lhs = m[l.join(a, b)]
        rhs = m[a] + m[b]
        if lhs != rhs:
            raise AdditivityFailure(a, b, lhs, rhs)


def is_state(l: Oml, s: StateFn) -> bool:
    try:
        validate_state(l, s)
    except StateError:
        return False
    return True


def state_system(l: Oml) -> Polytope:
    """The state axioms as a linear system, one variable per element.

    Additivity equalities are generated for all orthogonal pairs (the
    solver removes the redundancy), plus m(bot) = 0, m(top) = 1 and the
    unit box on every variable.
    """
    sb = SystemBuilder(l.elements)
    sb.add_eq({l.bot: 1}, 0)
    sb.add_eq({l.top: 1}, 1)
    for a, b in l.orthogonal_pairs():
        j = l.join(a, b)
        coeffs = {j: Fraction(1)}
        coeffs[a] = coeffs.get(a, Fraction(0)) - 1
        coeffs[b] = coeffs.get(b, Fraction(0)) - 1
        sb.add_eq(coeffs, 0)
    for x in l.elements:
        sb.add_box(x)
    return sb.build()


@dataclass(frozen=True)
class StateClass:
    """Def-1.4-style classification driven by the state polytope."""

    tag: str  # "stateless" | "unique-state" | "quantum-logic"
    polytope: PolyInfo


def classify_states(l: Oml, sys: Polytope | None = None) -> StateClass:
    """Classify the lattice by the affine dimension of its state space.

    A positive-dimensional rational polytope contains infinitely many
    states, which is the quantum-logic case.  sys is l's state_system,
    when the caller has built it already.
    """
    if sys is None:
        sys = state_system(l)
    info = solve(sys)
    tag = {"empty": "stateless", "point": "unique-state",
           "positive-dimensional": "quantum-logic"}[info.status]
    return StateClass(tag, info)


def state_vertices(l: Oml, cap: int = 10000,
                   sys: Polytope | None = None) -> list:
    """Extreme states of the state polytope, as StateFn, in vertex order.

    sys is l's state_system, when the caller has built it already.
    """
    if sys is None:
        sys = state_system(l)
    return [StateFn.from_vector(l, v) for v in enumerate_vertices(sys, cap)]
