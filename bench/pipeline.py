"""One benchmark instance, run through bfasp's public API as the CLI runs it.

The order follows ``bfasp.cli``: load the program (parse_model, parse_data,
ground, validate_program), then the ``ground`` command's format_program,
the ``solve`` command's ``Search(...).models()``, and the ``check`` command
reading the printed .bfg and assignment back for check_stable.  Every call
goes through an attribute of the ``bfasp`` package, looked up at call time,
so that a traced pass can wrap it.
"""

import time
from dataclasses import dataclass

import bfasp


@dataclass
class Outcome:
    program: object
    status: object
    models: list
    objective: int | None
    verdict: object
    load_s: float
    format_s: float
    search_s: float
    first_s: float | None  # from the start of search to the first model
    check_s: float | None

    @property
    def solve_s(self) -> float:
        """`bfasp solve`: model text to the last answer."""
        return self.load_s + self.search_s

    @property
    def ground_s(self) -> float:
        """`bfasp ground`: model text to .bfg text."""
        return self.load_s + self.format_s

    @property
    def first_model_s(self) -> float | None:
        return None if self.first_s is None else self.load_s + self.first_s

    @property
    def timed_s(self) -> float:
        return self.load_s + self.format_s + self.search_s + (self.check_s or 0)


def run_instance(instance, on_update=None) -> Outcome:
    """Ground, solve to completion, and check the last model of ``instance``.

    Objective models are optimized, other programs enumerated in full, as
    ``bfasp solve`` does with ``--all``.  Printing the model for the check
    path is output formatting and stays outside the timed spans.
    """
    clock = time.perf_counter
    program = instance.make_program() if instance.make_program else None
    start = clock()
    if program is None:
        model = bfasp.parse_model(instance.model_text, instance.label)
        data = bfasp.parse_data(instance.data_text, instance.label)
        program = bfasp.ground(model, data,
                               founded_default=instance.founded_default)
    _validate(program)
    loaded = clock()
    bfg = bfasp.format_program(program)
    formatted = clock()
    search = bfasp.Search(program, on_update=on_update)
    models, objective, first = [], None, None
    for model in search.models():
        if first is None:
            first = clock()
        models.append(model)
        if program.objective is not None:
            objective = search.objective_value
    searched = clock()

    verdict = check_s = None
    if models:
        printed = bfasp.format_assignment(program, models[-1])
        checking = clock()
        reread = bfasp.parse_ground_program(bfg)
        _validate(reread)
        valuation = bfasp.parse_assignment(printed, reread)
        verdict = bfasp.check_stable(reread, valuation, on_update=on_update)
        check_s = clock() - checking
    return Outcome(program, search.status, models, objective, verdict,
                   loaded - start, formatted - loaded, searched - formatted,
                   None if first is None else first - formatted, check_s)


def _validate(program):
    report = bfasp.validate_program(program)
    if not report.ok:
        raise bfasp.GroundingError("; ".join(report.issues))
