"""Shared fixtures: hand-built programs and paths to the bundled models."""

import random
from pathlib import Path

import pytest

from bfasp import (
    Clause,
    LinearAtom,
    Literal,
    Program,
    Rule,
    Sort,
    VarKind,
    Variable,
)
from bfasp.program import RuleShapes

MODELS = Path(__file__).resolve().parent.parent / "models"


def keyed_shapes(program: Program) -> tuple:
    """The shape numbers of ``program``'s rules, keyed rule by rule."""
    shapes = RuleShapes(program.variables)
    for rule in program.rules:
        shapes.add(rule)
    return shapes.numbered()


def build_example_one() -> Program:
    """The five-rule walkthrough program, written directly in clause form.

    Same program as models/ex1.bfz (declaration order s, a, b, x, y);
    several tests cross-check the two routes against each other.
    """
    s, a, b, x, y = range(5)
    variables = (
        Variable("s", VarKind.STANDARD, Sort.INT, -20, 20),
        Variable("a", VarKind.FOUNDED, Sort.INT, -50, 50),
        Variable("b", VarKind.FOUNDED, Sort.INT, -50, 50),
        Variable("x", VarKind.FOUNDED, Sort.BOOL),
        Variable("y", VarKind.FOUNDED, Sort.BOOL),
    )
    rules = (
        Rule(Clause(atoms=(LinearAtom(((1, a),), 0),)), a),
        Rule(Clause(atoms=(LinearAtom(((1, b),), 0),)), b),
        Rule(Clause(atoms=(LinearAtom(((1, a), (-1, b), (-1, s)), 0),)), a),
        Rule(Clause(lits=(Literal(x, False),),
                    atoms=(LinearAtom(((1, b),), 8),)), b),
        Rule(Clause(lits=(Literal(y), Literal(x)),
                    atoms=(LinearAtom(((-1, a),), -4),)), x),
    )
    return Program(variables, rules=rules)


def valuation_of(program: Program, **named) -> dict:
    """Translate name=value keywords into an id-keyed valuation."""
    index = program.index_by_name
    return {index[name]: value for name, value in named.items()}


# The walkthrough assignments: theta is stable, theta_prime lowers s to 3
# and leaves a at 17, which the rules no longer justify.
THETA = dict(s=9, a=17, b=8, x=True, y=False)
THETA_PRIME = dict(s=3, a=17, b=8, x=True, y=False)


@pytest.fixture
def ex1() -> Program:
    return build_example_one()


@pytest.fixture
def theta(ex1) -> dict:
    return valuation_of(ex1, **THETA)


@pytest.fixture
def theta_prime(ex1) -> dict:
    return valuation_of(ex1, **THETA_PRIME)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0x5EED)
