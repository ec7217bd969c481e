"""Every record type of bfasp, one table: construction, ``repr``, equality,
hashing, immutability, copying and the ``dataclasses`` helpers."""

import copy
import dataclasses
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace
from pathlib import Path

import pytest

import bfasp
from bfasp import (
    Clause,
    LinearAtom,
    LinearExpr,
    Literal,
    OptimizeOutcome,
    PositiveCP,
    Program,
    PropagationLevel,
    Rule,
    SearchConfig,
    SearchStats,
    Sort,
    StabilityReason,
    StabilityVerdict,
    ValueOrder,
    VarKind,
    Variable,
)
from bfasp.fixpoint import FixpointResult
from bfasp.model_ast import (
    Agg,
    ArrayAccess,
    BinOp,
    Bool2Int,
    Comparison,
    ConstraintItem,
    DataAssign,
    Gen,
    HeadAnn,
    Ident,
    IntLit,
    Model,
    Neg,
    Not,
    ParamDecl,
    RuleItem,
    SolveItem,
    Span,
    VarDecl,
)
from bfasp.program import ValidationReport

S = Span("m.bfz", 3, 7)
T = Span("n.bfz", 4, 1)
SR = "Span(file='m.bfz', line=3, col=7)"
X = Variable("x", VarKind.FOUNDED, Sort.INT, 0, 5)
XR = ("Variable(name='x', kind=<VarKind.FOUNDED: 'founded'>, "
      "sort=<Sort.INT: 'int'>, lo=0, hi=5)")
P = Variable("p", VarKind.STANDARD, Sort.BOOL)
C = Clause((Literal(0),), (LinearAtom(((1, 1),), 2),))
CR = ("Clause(lits=(Literal(var=0, positive=True),), "
      "atoms=(LinearAtom(terms=((1, 1),), bound=2),))")
R = Rule(C, 1)

# type: (fields of one instance, fields of another, number of leading
# fields without a default, the first instance's repr)
TABLE = {
    Span: (("m.bfz", 3, 7), ("n.bfz", 4, 1), 3, SR),
    IntLit: ((5, S), (6, T), 2, f"IntLit(value=5, span={SR})"),
    Ident: (("x", S), ("y", T), 2, f"Ident(name='x', span={SR})"),
    ArrayAccess: (("a", (1, 2), S), ("b", (3,), T), 3,
                  f"ArrayAccess(name='a', indices=(1, 2), span={SR})"),
    Neg: ((1, S), (2, T), 2, f"Neg(operand=1, span={SR})"),
    Not: ((True, S), (False, T), 2, f"Not(operand=True, span={SR})"),
    BinOp: (("+", 1, 2, S), ("*", 3, 4, T), 4,
            f"BinOp(op='+', left=1, right=2, span={SR})"),
    Comparison: ((">=", 1, 2, S), ("!=", 3, 4, T), 4,
                 f"Comparison(op='>=', left=1, right=2, span={SR})"),
    Gen: ((("u", "v"), 1, 9, S), (("w",), 2, 3, T), 4,
          f"Gen(names=('u', 'v'), lo=1, hi=9, span={SR})"),
    Agg: (("sum", (), None, 1, S), ("forall", (1,), True, 2, T), 5,
          f"Agg(kind='sum', gens=(), where=None, body=1, span={SR})"),
    Bool2Int: ((True, S), (False, T), 2, f"Bool2Int(operand=True, span={SR})"),
    HeadAnn: ((1, "h", S), (2, "g", T), 3,
              f"HeadAnn(body=1, target='h', span={SR})"),
    ParamDecl: (("N", (), None, 4, S), ("M", ((1, 2),), (0, 9), None, T), 5,
                f"ParamDecl(name='N', dims=(), elem_range=None, value=4, "
                f"span={SR})"),
    VarDecl: (("x", (), Sort.INT, (0, 5), False, S),
              ("y", ((1, 2),), Sort.BOOL, None, True, T), 6,
              f"VarDecl(name='x', dims=(), sort=<Sort.INT: 'int'>, "
              f"bounds=(0, 5), founded=False, span={SR})"),
    ConstraintItem: ((1, S), (2, T), 2, f"ConstraintItem(expr=1, span={SR})"),
    RuleItem: ((1, S), (2, T), 2, f"RuleItem(expr=1, span={SR})"),
    SolveItem: ((None, S), (1, T), 2, f"SolveItem(objective=None, span={SR})"),
    DataAssign: (("N", 4, S), ("M", 5, T), 3,
                 f"DataAssign(name='N', value=4, span={SR})"),
    Model: (("m.bfz", (1,), (2,), (3,), (4,), 5), ("n.bfz", (), (), (), (), None),
            1, "Model(file='m.bfz', params=(1,), vars=(2,), constraints=(3,), "
               "rules=(4,), solve=5)"),
    Variable: (("x", VarKind.FOUNDED, Sort.INT, 0, 5),
               ("p", VarKind.STANDARD, Sort.BOOL, None, None), 3, XR),
    Literal: ((3, False), (4, True), 1, "Literal(var=3, positive=False)"),
    LinearAtom: ((((2, 0),), 4), ((), -1), 2,
                 "LinearAtom(terms=((2, 0),), bound=4)"),
    Clause: (((Literal(0),), (LinearAtom(((1, 1),), 2),)),
             ((Literal(1, False),), ()), 0, CR),
    Rule: ((C, 1), (Clause(), 0), 2, f"Rule(clause={CR}, head=1)"),
    LinearExpr: ((((1, 0),), 3), ((), 0), 0,
                 "LinearExpr(terms=((1, 0),), constant=3)"),
    Program: (((X,), (C,), (R,), None), ((P,), (), (), LinearExpr()), 1,
              f"Program(variables=({XR},), constraints=({CR},), "
              f"rules=(Rule(clause={CR}, head=1),), objective=None)"),
    ValidationReport: ((["an issue"],), ([],), 0,
                       "ValidationReport(issues=['an issue'])"),
    StabilityVerdict: ((False, StabilityReason.MODEL_MISMATCH, 1, 2, 3, 4, 5),
                       (True, None, None, None, None, None, None), 1,
                       "StabilityVerdict(stable=False, "
                       "reason=<StabilityReason.MODEL_MISMATCH: "
                       "'minimal model disagrees'>, clause_index=1, "
                       "rule_index=2, var=3, assigned=4, derived=5)"),
    SearchConfig: ((ValueOrder.MAX_FIRST, PropagationLevel.LEAF_CHECK, 3, 1.5),
                   (ValueOrder.MIN_FIRST, PropagationLevel.CLAUSE, None, None),
                   0, "SearchConfig(value_order=<ValueOrder.MAX_FIRST: "
                      "'max-first'>, propagation=<PropagationLevel.LEAF_CHECK: "
                      "'leaf'>, solution_limit=3, time_budget=1.5)"),
    SearchStats: ((1, 2, 3, 4, 5, 6, 7), (0, 0, 0, 0, 0, 0, 0), 0,
                  "SearchStats(nodes=1, leaves=2, pruned_clause=3, "
                  "pruned_objective=4, pruned_bounds=5, bound_runs=6, "
                  "bound_rules=7)"),
    OptimizeOutcome: (({0: 1}, 4, True), ({}, 0, False), 3,
                      "OptimizeOutcome(model={0: 1}, value=4, proven=True)"),
    PositiveCP: (((X,), (R,), (0,)), ((P,), (), ()), 2,
                 f"PositiveCP(variables=({XR},), "
                 f"rules=(Rule(clause={CR}, head=1),), origins=(0,))"),
    FixpointResult: (({0: 1}, None), (None, 3), 1,
                     "FixpointResult(model={0: 1}, unsat_index=None)"),
}

MUTABLE = {ValidationReport, SearchConfig, SearchStats, OptimizeOutcome,
           FixpointResult}


def _dataclass_types():
    found = set()
    for info in pkgutil.iter_modules(bfasp.__path__):
        module = importlib.import_module(f"bfasp.{info.name}")
        for value in vars(module).values():
            if (isinstance(value, type) and is_dataclass(value)
                    and value.__module__ == module.__name__):
                found.add(value)
    return found


def test_the_table_holds_every_dataclass_type_of_bfasp():
    assert _dataclass_types() == set(TABLE)
    assert len(TABLE) == 33 and MUTABLE < set(TABLE)


@pytest.mark.parametrize("cls", list(TABLE), ids=lambda cls: cls.__name__)
def test_record_type(cls):
    a, b, required, text = TABLE[cls]
    names = [f.name for f in fields(cls)]
    assert len(names) == len(a) == len(b)
    obj = cls(*a)
    assert repr(obj) == text
    assert [getattr(obj, name) for name in names] == list(a)
    assert cls.__match_args__ == tuple(names)
    assert is_dataclass(cls) and is_dataclass(obj)

    # construction: positional, keyword, mixed; defaults; refusals
    assert cls(**dict(zip(names, a))) == obj
    assert cls(a[0], **dict(zip(names[1:], a[1:]))) == obj
    shortest = cls(*a[:required])
    for f in fields(cls)[required:]:
        want = (f.default_factory() if f.default is dataclasses.MISSING
                else f.default)
        assert getattr(shortest, f.name) == want
    if required:
        with pytest.raises(TypeError):
            cls(*a[:required - 1])
        with pytest.raises(TypeError):
            cls(**dict(zip(names[1:], a[1:])))
    with pytest.raises(TypeError):
        cls(*a, None)
    with pytest.raises(TypeError):
        cls(*a, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*a, **{names[0]: a[0]})

    # equality: by value, and only with an instance of the same type
    other = cls(*b)
    assert obj == cls(*a) and not obj != cls(*a)
    assert obj != other and not obj == other
    twin = dataclasses.make_dataclass(cls.__name__, names)(*a)
    assert obj != twin and twin != obj
    assert obj.__eq__(twin) is NotImplemented

    if cls in MUTABLE:
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(obj)
        setattr(obj, names[-1], b[-1])
        assert getattr(obj, names[-1]) == b[-1]
        obj = cls(*a)
    else:
        assert hash(obj) == hash(tuple(a)) == hash(cls(*a))
        for name, value in zip(names, b):
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, value)
            with pytest.raises(FrozenInstanceError):
                delattr(obj, name)
        with pytest.raises(FrozenInstanceError):
            obj.no_such_field = 1
        assert [getattr(obj, name) for name in names] == list(a)

    # replace: one field at a time
    same = replace(obj)
    assert same == obj and same is not obj
    for i, name in enumerate(names):
        changed = replace(obj, **{name: b[i]})
        assert [getattr(changed, n) for n in names] == \
            [b[j] if j == i else a[j] for j in range(len(a))]

    # copies and pickles
    for copied in (copy.copy(obj), copy.deepcopy(obj),
                   pickle.loads(pickle.dumps(obj))):
        assert type(copied) is cls
        assert copied == obj and repr(copied) == text


def test_no_dataclass_type_of_bfasp_carries_a_generated_method():
    # ``@dataclass`` compiles each method it generates from "<string>" as
    # the module loads, which every command pays at start-up; the shared
    # ones in ``program.Record`` are compiled with their module.  Only
    # dataclass types are looked at: a NamedTuple's ``__new__`` is
    # generated too.
    src = Path(bfasp.__file__).resolve().parent
    script = (
        "import importlib, inspect, pkgutil, dataclasses, bfasp\n"
        "for info in pkgutil.iter_modules(bfasp.__path__):\n"
        "    module = importlib.import_module('bfasp.' + info.name)\n"
        "    for cls in vars(module).values():\n"
        "        if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)\n"
        "                and cls.__module__ == module.__name__):\n"
        "            continue\n"
        "        for name, value in vars(cls).items():\n"
        "            if inspect.isfunction(value):\n"
        "                print(cls.__name__, name, value.__code__.co_filename)\n")
    env = dict(os.environ, PYTHONPATH=str(src.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=60)
    lines = done.stdout.splitlines()
    assert any(line.startswith("Literal __init__ ") for line in lines)
    # a function of ``dataclasses`` itself is shared, not generated (such
    # as ``__replace__`` from Python 3.13 on)
    shared = Path(dataclasses.__file__).resolve()
    files = {line: Path(line.split(" ", 2)[2]).resolve() for line in lines}
    outside = [line for line, path in files.items()
               if not path.is_relative_to(src) and path != shared]
    assert outside == []


def test_a_default_factory_gives_each_instance_its_own_list():
    first, second = ValidationReport(), ValidationReport()
    assert first.issues == [] and first.issues is not second.issues
    first.issues.append("x")
    assert second.issues == [] and ValidationReport().issues == []


def test_search_config_refuses_a_nan_time_budget_and_a_limit_below_one():
    with pytest.raises(ValueError, match="time budget"):
        SearchConfig(time_budget=float("nan"))
    with pytest.raises(ValueError, match="time budget"):
        SearchConfig(time_budget=0)
    with pytest.raises(ValueError, match="solution limit"):
        SearchConfig(solution_limit=0)
    config = replace(SearchConfig(), time_budget=2.0)
    with pytest.raises(ValueError, match="time budget"):
        replace(config, time_budget=float("nan"))


def test_search_stats_count_in_place():
    stats = SearchStats()
    stats.nodes += 2
    stats.nodes += 1
    stats.bound_rules += 5
    assert stats == SearchStats(nodes=3, bound_rules=5)
    assert repr(stats).startswith("SearchStats(nodes=3, leaves=0,")
