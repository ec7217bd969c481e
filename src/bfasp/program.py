"""Ground program representation for bound-founded answer set solving.

A ground program couples ordinary constraint variables ("standard") with
founded variables whose values must be justified by rules.  Founded integer
variables admit an extra bottom value below every integer, spelled
``NEG_INF``; founded Booleans bottom out at ``false``.  Constraints and rule
bodies share one normalized clause shape: a disjunction of Boolean literals
and integer linear inequalities ``c1*x1 + ... + cn*xn >= k``.

The bottom values are IEEE float infinities, and evaluation is IEEE
arithmetic on them (``linear_sum``): ``NEG_INF`` times a positive
coefficient contributes negative infinity, times a negative coefficient
positive infinity, and a sum mixing both is ``nan``, which evaluates to
``Truth.UNDEFINED`` rather than an exception.  Undefined never counts as
satisfied.  Valuations and models built here hold the ``NEG_INF``
constant itself; a computed infinity equals it but is another float object,
so compare with ``==``, not ``is``.
"""

import enum
from dataclasses import dataclass, field
from functools import cached_property


NEG_INF = float("-inf")
POS_INF = float("inf")

# Adding an integer to an infinity converts it to a float, so validation
# keeps every integer within ±2**256: sums of products of two such integers
# stay far inside the float range.
_INT_LIMIT = 2**256

# A variable's value: bool for Boolean sorts, int for integer sorts, the
# NEG_INF constant itself for founded integers left at their bottom.
# Extended sums may also be POS_INF, or nan when undefined.
Value = int  # documentation alias; bool and float also occur


class Sort(enum.Enum):
    BOOL = "bool"
    INT = "int"


class VarKind(enum.Enum):
    STANDARD = "standard"
    FOUNDED = "founded"


@dataclass(frozen=True)
class Variable:
    """Declaration of one ground variable.

    Integer variables carry a finite interval ``lo..hi``; founded integers
    additionally admit ``NEG_INF``.  Boolean variables leave ``lo``/``hi``
    unset.
    """

    name: str
    kind: VarKind
    sort: Sort
    lo: int | None = None
    hi: int | None = None

    @property
    def is_founded(self) -> bool:
        return self.kind is VarKind.FOUNDED

    def least_value(self):
        """The smallest admissible value: the lattice start for fixpoints."""
        if self.sort is Sort.BOOL:
            return False
        return NEG_INF if self.is_founded else self.lo

    def admits(self, value) -> bool:
        """True iff ``value`` lies in this variable's (extended) domain."""
        if self.sort is Sort.BOOL:
            return isinstance(value, bool)
        if isinstance(value, bool):
            return False
        if value == NEG_INF:
            return self.is_founded
        return isinstance(value, int) and self.lo <= value <= self.hi


@dataclass(frozen=True)
class Literal:
    """A Boolean variable occurrence, positive or negated."""

    var: int
    positive: bool = True


@dataclass(frozen=True)
class LinearAtom:
    """Integer inequality ``sum(coeff * var) >= bound``.

    Coefficients are nonzero and no variable repeats.  ``bound`` is an int in
    source programs; reduct folding may produce an infinite bound.  An atom
    with no terms is a constant: its truth is ``0 >= bound``.
    """

    terms: tuple[tuple[int, int], ...]  # (coeff, var)
    bound: int


@dataclass(frozen=True)
class Clause:
    """Disjunction of literals and linear atoms.

    The empty clause is permitted only as an explicit unsatisfiable marker.
    """

    lits: tuple[Literal, ...] = ()
    atoms: tuple[LinearAtom, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.lits and not self.atoms

    def variables(self):
        """All variable ids occurring in the clause, in member order."""
        for lit in self.lits:
            yield lit.var
        for atom in self.atoms:
            for _, var in atom.terms:
                yield var


@dataclass(frozen=True)
class Rule:
    """A clause tagged with its founded head variable.

    The head must occur exactly once in the clause, in a position where
    raising it can only help satisfy the clause (validated separately).
    """

    clause: Clause
    head: int


@dataclass(frozen=True)
class LinearExpr:
    """Objective expression: integer terms plus 0/1-valued Boolean terms."""

    terms: tuple[tuple[int, int], ...] = ()  # (coeff, var)
    constant: int = 0


@dataclass(frozen=True)
class Program:
    """An immutable ground program: variables, constraints, rules, objective."""

    variables: tuple[Variable, ...]
    constraints: tuple[Clause, ...] = ()
    rules: tuple[Rule, ...] = ()
    objective: LinearExpr | None = None

    @cached_property
    def index_by_name(self) -> dict[str, int]:
        return {v.name: i for i, v in enumerate(self.variables)}

    @cached_property
    def shapes(self) -> tuple[int, ...]:
        """Each rule's shape number (see ``RuleShapes``)."""
        shapes = RuleShapes(self.variables)
        for rule in self.rules:
            shapes.add(rule)
        return shapes.numbered()

    def name(self, var: int) -> str:
        return self.variables[var].name


class RuleShapes:
    """Numbers the shapes of rules, in the order their first rules are added.

    A rule's shape is its occurrence structure with each variable replaced
    by a canonical id, numbered by first occurrence (the head's id comes
    after the clause's when the clause lacks it): the literals' ids and
    signs, each atom's coefficients and ids, the head's id, and each id's
    kind and sort.  Repeated variables, self-loops among them, are part of
    the shape; atom bounds and variable domains are not.  Rules of one
    shape agree member by member and term by term, so the analyses that
    read only the occurrence structure, ``analysis.rule_verdict`` and
    ``analysis.shape_form``, are made on a shape's first rule and hold for
    the others by position.  An unknown variable index counts as a
    variable of no kind, so that malformed programs get shapes too.
    """

    def __init__(self, variables):
        # kind and sort by value: an Enum member hashes through a Python
        # call, which would dominate the keying of a large program; and
        # ``_value_``, the plain attribute behind ``.value``, is read
        # without a descriptor call.  A reader that declares variables as
        # it goes adds each one's to ``kinds``, by id.
        self.kinds = {i: (v.kind._value_, v.sort._value_)
                      for i, v in enumerate(variables)}
        self._numbers: dict[tuple, int] = {}
        self._of: list[int] = []  # per rule added, its shape's number

    def add(self, rule: "Rule") -> bool:
        """Number ``rule``'s shape; True when no rule added before had it."""
        clause = rule.clause
        ids: dict[int, int] = {}
        number_of = ids.setdefault  # an id, numbered when first met
        key = []
        for lit in clause.lits:
            key.append((number_of(lit.var, len(ids)), lit.positive))
        for atom in clause.atoms:
            key.append(None)  # opens an atom
            for coeff, var in atom.terms:
                key.append((coeff, number_of(var, len(ids))))
        key.append(number_of(rule.head, len(ids)))
        key += map(self.kinds.get, ids)
        numbers = self._numbers
        count = len(numbers)
        number = numbers.setdefault(tuple(key), count)
        self._of.append(number)
        return number == count

    @property
    def last(self) -> int:
        """The shape number of the rule added last."""
        return self._of[-1]

    def repeat(self, number: int) -> None:
        """Number one more rule as shape ``number``, which the caller knows
        it has: the grounder's rules of one template and layout."""
        self._of.append(number)

    def numbered(self) -> tuple[int, ...]:
        """The shape numbers of the rules added so far."""
        return tuple(self._of)


class Truth(enum.Enum):
    """Three-valued verdict of extended evaluation."""

    TRUE = "true"
    FALSE = "false"
    UNDEFINED = "undefined"


def format_value(value) -> str:
    """Canonical spelling of a value: true/false, -inf, inf, or the integer."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def linear_sum(terms, valuation):
    """``sum(coeff * valuation[var])`` over ``(coeff, var)`` terms.

    Returns an int when every value is finite (bools count 0/1), NEG_INF or
    POS_INF when bottom values pull the sum one way, and ``nan`` when they
    pull it both ways: the sum is undefined.
    """
    total = 0
    for coeff, var in terms:
        total += coeff * valuation[var]
    return total


def eval_linear(atom: LinearAtom, valuation) -> Truth:
    """Evaluate one inequality under a valuation, with extended arithmetic.

    All atom variables must be assigned.  A mixed (``nan``) sum is
    UNDEFINED.  A -inf bound holds for every other sum, and a +inf bound
    for none: it is FALSE, or UNDEFINED against a +inf sum.
    """
    total = linear_sum(atom.terms, valuation)
    if total >= atom.bound:
        if total == atom.bound == POS_INF:
            return Truth.UNDEFINED
        return Truth.TRUE
    return Truth.UNDEFINED if total != total else Truth.FALSE  # nan


def eval_clause(clause: Clause, valuation) -> Truth:
    """TRUE if some member holds, FALSE if all fail, else UNDEFINED."""
    for lit in clause.lits:
        if valuation[lit.var] == lit.positive:
            return Truth.TRUE
    undefined = False
    for atom in clause.atoms:
        verdict = eval_linear(atom, valuation)
        if verdict is Truth.TRUE:
            return Truth.TRUE
        if verdict is Truth.UNDEFINED:
            undefined = True
    return Truth.UNDEFINED if undefined else Truth.FALSE


def failing_constraint(program: Program, valuation):
    """First constraint not evaluating TRUE, as (index, Truth), or None.

    The witness is deterministic: constraints are scanned in program order,
    so the same clause id is reported across runs.
    """
    for i, clause in enumerate(program.constraints):
        verdict = eval_clause(clause, valuation)
        if verdict is not Truth.TRUE:
            return i, verdict
    return None


def satisfies(program: Program, valuation) -> bool:
    """True iff every constraint evaluates TRUE (UNDEFINED does not count)."""
    return failing_constraint(program, valuation) is None


def eval_linear_expr(expr: LinearExpr, valuation):
    """Value of an objective expression; bools count 0/1.

    Returns an int, or NEG_INF/POS_INF for pure infinite sums, or None when
    the sum mixes both infinities.
    """
    total = expr.constant + linear_sum(expr.terms, valuation)
    return None if total != total else total  # nan


@dataclass
class ValidationReport:
    """Outcome of validate_program: empty issue list means valid."""

    issues: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def __str__(self):
        return "ok" if self.ok else "\n".join(self.issues)


def _check_clause(clause: Clause, variables, where: str, issues: list) -> bool:
    """Append ``clause``'s issues; True when one is not about a bound, that
    is, when its occurrence structure (``RuleShapes``) is faulty."""
    before = len(issues)
    bounds = 0  # issues about a bound
    count = len(variables)
    for lit in clause.lits:
        if not 0 <= lit.var < count:
            issues.append(f"{where}: literal references unknown variable {lit.var}")
        elif variables[lit.var].sort is not Sort.BOOL:
            issues.append(f"{where}: literal on non-Boolean variable "
                          f"'{variables[lit.var].name}'")
    for atom in clause.atoms:
        seen = set()
        for coeff, var in atom.terms:
            if not 0 <= var < count:
                issues.append(f"{where}: atom references unknown variable {var}")
                continue
            if variables[var].sort is not Sort.INT:
                issues.append(f"{where}: atom term on non-integer variable "
                              f"'{variables[var].name}'")
            if coeff == 0:
                issues.append(f"{where}: zero coefficient on "
                              f"'{variables[var].name}'")
            elif abs(coeff) > _INT_LIMIT:
                issues.append(f"{where}: coefficient beyond ±2**256 on "
                              f"'{variables[var].name}'")
            if var in seen:
                issues.append(f"{where}: variable '{variables[var].name}' "
                              f"repeats within one atom")
            seen.add(var)
        bounds += _check_bound(atom, where, issues)
    return len(issues) - before > bounds


def _check_bound(atom: LinearAtom, where: str, issues: list) -> bool:
    """Append the issue of ``atom``'s bound, if it has one; True if so."""
    if atom.bound in (NEG_INF, POS_INF):
        issues.append(f"{where}: infinite bound outside a reduct")
    elif abs(atom.bound) > _INT_LIMIT:
        issues.append(f"{where}: bound beyond ±2**256")
    else:
        return False
    return True


def validate_program(program: Program) -> ValidationReport:
    """Check referential and structural sanity of a ground program.

    Covers variable domains, clause well-formedness, rule head requirements
    (founded, single increasing occurrence) and monotone rule bodies.
    """
    from .analysis import rule_verdict

    issues: list[str] = []
    names = set()
    for i, var in enumerate(program.variables):
        if var.name in names:
            issues.append(f"variable {i}: duplicate name '{var.name}'")
        names.add(var.name)
        if var.sort is Sort.INT:
            if var.lo is None or var.hi is None:
                issues.append(f"variable '{var.name}': integer without interval")
            elif var.lo > var.hi:
                issues.append(f"variable '{var.name}': empty interval "
                              f"{var.lo}..{var.hi}")
            elif max(-var.lo, var.hi) > _INT_LIMIT:
                issues.append(f"variable '{var.name}': interval beyond "
                              f"±2**256")
        elif var.lo is not None or var.hi is not None:
            issues.append(f"variable '{var.name}': interval on a Boolean")

    for i, clause in enumerate(program.constraints):
        _check_clause(clause, program.variables, f"constraint {i}", issues)

    # Every check but the bound checks reads only the rule's shape: a shape
    # whose first rule passes them has only its rules' bounds checked, and
    # every rule of a faulty shape is checked in full.
    count = len(program.variables)
    passed = set()  # shape numbers
    for i, (rule, number) in enumerate(zip(program.rules, program.shapes)):
        if number in passed:
            # the rule's text is made only for a faulty bound
            for atom in rule.clause.atoms:
                if not -_INT_LIMIT <= atom.bound <= _INT_LIMIT:
                    _check_bound(atom, f"rule {i}", issues)
            continue
        where = f"rule {i}"
        faulty = _check_clause(rule.clause, program.variables, where, issues)
        if rule.clause.is_empty:
            issues.append(f"{where}: empty clause")
            continue
        if not 0 <= rule.head < count:
            issues.append(f"{where}: unknown head variable {rule.head}")
            continue
        violation, non_monotone = rule_verdict(rule, program.variables)
        if violation is None and not non_monotone and not faulty:
            passed.add(number)
        if violation is not None:
            issues.append(f"{where}: {violation.describe(program.name(rule.head))}")
        for var in set(rule.clause.variables()) - {rule.head}:
            # an unknown variable is reported above, by its index
            if var in non_monotone and 0 <= var < count:
                issues.append(f"{where}: non-monotone occurrence of "
                              f"'{program.name(var)}' in a rule body")

    if program.objective is not None:
        seen = set()
        for coeff, var in program.objective.terms:
            if not 0 <= var < len(program.variables):
                issues.append(f"objective: unknown variable {var}")
                continue
            if coeff == 0:
                issues.append(f"objective: zero coefficient on "
                              f"'{program.name(var)}'")
            elif abs(coeff) > _INT_LIMIT:
                issues.append(f"objective: coefficient beyond ±2**256 on "
                              f"'{program.name(var)}'")
            if var in seen:
                issues.append(f"objective: variable '{program.name(var)}' repeats")
            seen.add(var)
        if abs(program.objective.constant) > _INT_LIMIT:
            issues.append("objective: constant beyond ±2**256")

    return ValidationReport(issues)


def validate_valuation(program: Program, valuation) -> list[str]:
    """Issues preventing ``valuation`` from being a total in-domain map."""
    issues = []
    for i, var in enumerate(program.variables):
        if i not in valuation:
            issues.append(f"variable '{var.name}' is unassigned")
        elif not var.admits(valuation[i]):
            issues.append(f"variable '{var.name}' has out-of-domain value "
                          f"{format_value(valuation[i])}")
    return issues
