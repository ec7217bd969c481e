"""Search against the stability definition, on programs hypothesis picks.

Each example is a ``random_mixed_program`` drawn from a hypothesis-chosen
seed.  The stable models it must find are the total valuations that
``check_stable`` accepts, scanned exhaustively, and every propagation level
must yield them in the same order.  The ``.bfg`` and ``.bfa`` texts of the
programs and their models must read back to what was written.  Skipped when
hypothesis is missing.
"""

import dataclasses
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from bfasp import (
    PropagationLevel,
    SearchConfig,
    check_stable,
    enumerate_stable,
    eval_linear_expr,
    format_assignment,
    format_program,
    parse_assignment,
    parse_ground_program,
)

import oracles

CLAUSE = SearchConfig(propagation=PropagationLevel.CLAUSE)
LEAF_CHECK = SearchConfig(propagation=PropagationLevel.LEAF_CHECK)

seeds = st.integers(min_value=0, max_value=2**64 - 1)
examples = settings(max_examples=300, deadline=None, database=None)


def stable_valuations(program):
    return [valuation for valuation in oracles.all_valuations(program)
            if check_stable(program, valuation).stable]


@examples
@given(seeds)
def test_enumeration_is_the_set_of_stable_valuations(seed):
    program = oracles.random_mixed_program(random.Random(seed), max_vars=5)
    models = list(enumerate_stable(program, CLAUSE))
    assert models == list(enumerate_stable(program, LEAF_CHECK))
    assert ({oracles.freeze(m) for m in models}
            == {oracles.freeze(v) for v in stable_valuations(program)})
    assert len(models) == len({oracles.freeze(m) for m in models})


@examples
@given(seeds)
def test_optimization_improves_to_the_best_stable_value(seed):
    program = oracles.random_mixed_program(random.Random(seed), max_vars=5,
                                           with_objective=True)
    models = list(enumerate_stable(program, CLAUSE))
    assert models == list(enumerate_stable(program, LEAF_CHECK))
    stable = {oracles.freeze(v) for v in stable_valuations(program)}
    values = [eval_linear_expr(program.objective, m) for m in models]
    assert all(oracles.freeze(m) in stable for m in models)
    assert values == sorted(set(values), reverse=True)
    best = min((eval_linear_expr(program.objective, dict(v)) for v in stable),
               default=None)
    assert (values[-1] if values else None) == best


def with_cell_names(program, rand):
    """The program with each variable renamed to a cell: m[3], m[1,-2]."""
    variables = tuple(
        dataclasses.replace(info, name=rand.choice(
            (f"m[{var}]", f"m[{var},{-rand.randint(0, 3)}]")))
        for var, info in enumerate(program.variables))
    return dataclasses.replace(program, variables=variables)


@examples
@given(seeds)
def test_ground_programs_read_back_from_their_text(seed):
    rand = random.Random(seed)
    program = with_cell_names(
        oracles.random_mixed_program(rand, with_objective=rand.random() < 0.5),
        rand)
    assert parse_ground_program(format_program(program)) == program


@examples
@given(seeds)
def test_every_model_reads_back_from_its_text(seed):
    rand = random.Random(seed)
    program = with_cell_names(
        oracles.random_mixed_program(rand, max_vars=5), rand)
    for model in enumerate_stable(program, CLAUSE):
        assert parse_assignment(format_assignment(program, model),
                                program) == model
