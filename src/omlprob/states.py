"""States on finite OMLs: validation, the state polytope, classification.

The state axioms are one list of rows (_state_rows, in the row form of
linear.first_violation): validate_state checks a candidate against
them and state_system turns them into the equalities of the state
polytope.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .lattice import Oml
from .linear import (PolyInfo, Polytope, SystemBuilder, enumerate_vertices,
                     first_violation, solve)
from .rational import as_fraction, fmt_rat, parse_rat


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
    """A total map element -> Fraction; candidate probability measure.

    values is the dict {element: Fraction} in lattice element order: the
    dict validate_state hands to linear.first_violation.  It must not be
    mutated.
    """

    values: dict

    def __call__(self, x: str) -> Fraction:
        return self.values[x]

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
        return StateFn({x: as_fraction(values[x]) for x in l.elements})

    @staticmethod
    def from_vector(l: Oml, vec) -> "StateFn":
        if len(vec) != len(l.elements):
            raise StateError("vector has %d values for %d elements"
                             % (len(vec), len(l.elements)))
        return StateFn(dict(zip(l.elements, map(as_fraction, vec))))

    def to_json(self) -> str:
        return json.dumps({x: fmt_rat(v) for x, v in self.values.items()},
                          indent=2)


def state_from_json(l: Oml, text: str) -> StateFn:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise StateError("state file must be a JSON object")
    return StateFn.from_dict(l, {x: parse_rat(v) for x, v in data.items()})


def _state_rows(l: Oml):
    """m(0) = 0, m(1) = 1, then m(a v b) = m(a) + m(b) over every
    orthogonal pair, as rows over element keys."""
    yield "bot", (l.bot,), l.bot, (), (), 0, False
    yield "top", (l.top,), l.top, (), (), 1, False
    for a, b in l.orthogonal_pairs():
        yield "additivity", (a, b), l.join(a, b), (a, b), (), 0, False


def validate_state(l: Oml, s: StateFn) -> None:
    """Check the state axioms exhaustively; raise on the first violation.

    A values dict that is not l's elements in order raises StateError;
    values outside [0, 1] raise OutOfRange, before any row is read;
    then the first broken row of _state_rows raises NotNormalized
    (m(0) = 0, m(1) = 1) or AdditivityFailure.
    """
    if list(s.values) != list(l.elements):
        raise StateError("state is not total on L in element order")
    for x in l.elements:
        if not 0 <= s(x) <= 1:
            raise OutOfRange(x, s(x))
    hit = first_violation(_state_rows(l), s.values)
    if hit is None:
        return
    axiom, elems, lhs, rhs = hit
    if axiom == "additivity":
        raise AdditivityFailure(*elems, lhs, rhs)
    raise NotNormalized("m(%s) = %s != %s" % (axiom, fmt_rat(lhs),
                                               fmt_rat(rhs)))


def is_state(l: Oml, s: StateFn) -> bool:
    try:
        validate_state(l, s)
    except StateError:
        return False
    return True


def state_system(l: Oml) -> Polytope:
    """The state axioms as a linear system, one variable per element.

    The rows of _state_rows become equalities (additivity over all
    orthogonal pairs; the solver removes the redundancy), and every
    variable gets the unit box.
    """
    sb = SystemBuilder(l.elements)
    sb.add_rows(_state_rows(l), lambda x: (x,))
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


def state_vertices(l: Oml, cap: int = 10000) -> list:
    """Extreme states of the state polytope, as StateFn, in vertex order."""
    return [StateFn.from_vector(l, v)
            for v in enumerate_vertices(state_system(l), cap)]
