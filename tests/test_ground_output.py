"""Ground output and grounding errors, pinned byte for byte.

The golden ``.bfg`` files under ``tests/golden`` and the error texts below
were recorded with the grounder that walked each item's syntax tree once per
binding; the function generated for each item must reproduce them exactly,
and the shape numbers it hands on must be those of the printed rules.
"""

from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest

from bfasp import GroundingError, format_program, ground, parse_data, parse_model
from bfasp.model_ast import ArrayAccess, Ident

from conftest import keyed_shapes

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

# Small fixed instances for the data-free benchmark models: the sssp graph
# has two self-loops (dropped as tautologies) and two unreachable nodes.
SSSP_DATA = """N = 6; E = 8; S = 1;
from = [1, 1, 2, 3, 2, 4, 3, 6];
to = [2, 3, 3, 2, 4, 4, 3, 1];
weight = [4, 1, 2, 1, 5, 3, 2, 7];
"""
MCDS_DATA = """N = 5; E = 10; K = 60;
from = [1, 2, 2, 3, 3, 4, 4, 5, 5, 1];
to = [2, 1, 3, 2, 4, 3, 5, 4, 1, 5];
weight = [10, 10, 20, 20, 15, 15, 25, 25, 30, 30];
"""

GOLDEN_CASES = {
    "ex1": ("models/ex1.bfz", None, None),
    "circular": ("models/circular.bfz", None, None),
    "cyclic_bounds": ("models/cyclic_bounds.bfz", None, None),
    "mcds": ("models/mcds.bfz", None, None),
    "mcds_core_path4": ("models/mcds_core.bfz",
                        (ROOT / "models/path4.bfd").read_text(), (-200, 0)),
    "bench_sssp": ("bench/models/sssp.bfz", SSSP_DATA, (-100, 0)),
    "bench_mcds_core": ("bench/models/mcds_core.bfz", MCDS_DATA, (-200, 0)),
}


def test_every_bundled_model_has_a_golden():
    covered = {path for path, _, _ in GOLDEN_CASES.values()}
    bundled = {f"models/{p.name}" for p in (ROOT / "models").glob("*.bfz")}
    assert bundled <= covered
    assert {p.stem for p in GOLDEN.glob("*.bfg")} == set(GOLDEN_CASES)


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_ground_output_is_byte_identical_to_the_golden(name):
    path, data, founded_default = GOLDEN_CASES[name]
    model = parse_model((ROOT / path).read_text(), path)
    program = ground(model, parse_data(data) if data else (),
                     founded_default=founded_default)
    assert format_program(program) == (GOLDEN / f"{name}.bfg").read_text()
    # the grounder hands its own shape numbers on to the program
    assert vars(program)["shapes"] == keyed_shapes(program)


def _renamed(node, old: str, new: str):
    """``node`` with every Ident or ArrayAccess named ``old`` renamed: a
    model the name resolver would refuse, handed to the grounder as is."""
    if isinstance(node, tuple):
        return tuple(_renamed(n, old, new) for n in node)
    if not is_dataclass(node) or isinstance(node, type):
        return node
    if isinstance(node, (Ident, ArrayAccess)) and node.name == old:
        node = replace(node, name=new)
    return replace(node, **{f.name: _renamed(getattr(node, f.name), old, new)
                            for f in fields(node)})


# (id, model text, (old, new) rename or None, expected str(GroundingError))
ERROR_CASES = [
    ("index-parameter",
     "array[1..3] of int: w = [5, 6, 7];\nvar 0..9: n;\n"
     "constraint forall (i in 1..4) (n >= w[i]);\n", None,
     "<model>:3:37: index 4 is outside 1..3 in 'w' (i=4)"),
    ("index-variable-2d",
     "array[1..2, 1..2] of var bool: x;\n"
     "constraint forall (i in 1..2, j in 1..3) (x[i, j]);\n", None,
     "<model>:2:43: index 3 is outside 1..2 in 'x' (i=1, j=3)"),
    ("index-head",
     "array[1..2] of var 0..9: d :: founded;\n"
     "rule (forall (i in 1..3) (d[i] >= 0 :: head(d[i])));\n", None,
     "<model>:2:45: index 3 is outside 1..2 in 'd' (i=3)"),
    ("index-generator-range",
     "array[1..3] of int: w = [1, 2, 3];\nvar bool: p;\n"
     "constraint forall (i in 1..4, j in 1..w[i]) (p);\n", None,
     "<model>:3:39: index 4 is outside 1..3 in 'w' (i=4)"),
    ("index-where",
     "array[1..3] of int: w = [1, 2, 3];\nvar bool: p;\n"
     "constraint forall (i in 1..4 where w[i] > 0) (p);\n", None,
     "<model>:3:36: index 4 is outside 1..3 in 'w' (i=4)"),
    ("index-sum",
     "array[1..3] of var 0..9: x;\n"
     "constraint forall (k in 1..2) (sum (i in 1..k+2) (x[i]) >= k);\n", None,
     "<model>:2:51: index 4 is outside 1..3 in 'x' (k=2, i=4)"),
    ("index-objective",
     "array[1..2] of var 0..3: c;\n"
     "solve minimize sum (i in 1..3) (c[i]);\n", None,
     "<model>:2:33: index 3 is outside 1..2 in 'c' (i=3)"),
    ("not-fixed-integer",
     "int: M = 2;\nvar 0..9: n;\nvar bool: p;\n"
     "constraint forall (i in 1..2, j in 1..M) (p);\n", ("M", "n"),
     "<model>:4:39: 'n' is not a fixed integer here (i=1)"),
    ("not-parameter-array",
     "array[1..2] of int: w = [1, 2];\narray[1..2] of var 1..2: v;\n"
     "var bool: p;\nconstraint forall (i in 1..2, j in 1..w[i]) (p);\n",
     ("w", "v"), "<model>:4:39: 'v' is not a parameter array (i=1)"),
    ("not-variable",
     "int: M = 2;\narray[1..2] of var 0..9: d :: founded;\n"
     "var 0..9: c :: founded;\n"
     "rule (forall (i in 1..2) (d[i] >= 0 \\/ c >= 1 :: head(c)));\n",
     ("c", "M"), "<model>:4:55: 'M' is not a variable (i=1)"),
    ("not-variable-array",
     "array[1..2] of int: w = [1, 2];\n"
     "array[1..2] of var 0..9: d :: founded;\n"
     "rule (forall (i in 1..2) (d[i] >= 0 :: head(d[i])));\n",
     ("d", "w"), "<model>:3:45: 'w' is not a variable array (i=1)"),
    ("boolean-in-arithmetic",
     "array[1..2] of var bool: b;\n"
     "constraint forall (i in 1..2) (b[i] + 1 >= 1);\n", None,
     "<model>:2:32: 'b[1]' is Boolean; it cannot appear in arithmetic (i=1)"),
    ("integer-as-condition",
     "array[1..2] of var 0..9: x;\n"
     "constraint forall (i in 1..2) (x[i]);\n", None,
     "<model>:2:32: 'x[1]' is an integer, not a condition (i=1)"),
    ("non-linear",
     "array[1..2] of var 0..9: x;\n"
     "constraint forall (i in 1..2) (x[i] * x[i] >= 0);\n", None,
     "<model>:2:37: non-linear product (i=1)"),
    ("non-linear-once-the-sum-has-terms",
     "array[1..3] of var 0..9: x;\n"
     "constraint forall (j in 1..3) (sum (i in 1..j-1) (x[i]) * x[j] >= 0);\n",
     None, "<model>:2:57: non-linear product (j=2)"),
    ("non-monotone",
     "array[1..2] of var 0..9: a :: founded;\nvar 0..9: n;\n"
     "rule (forall (i in 1..2) (a[i] >= -n <- n >= 3 :: head(a[i])));\n", None,
     "<model>:3:1: rule clause is non-monotone in 'n' (i=1)"),
    ("non-monotone-where-two-cells-meet",
     "int: E = 2;\narray[1..E] of int: f = [1, 2];\n"
     "array[1..E] of int: t = [2, 2];\n"
     "array[1..2] of var 0..9: a :: founded;\n"
     "array[1..2] of var 0..9: x;\n"
     "rule (forall (e in 1..E) (a[f[e]] >= 1 \\/ x[f[e]] >= 1 \\/ "
     "-x[t[e]] >= 0 :: head(a[f[e]])));\n", None,
     "<model>:6:1: rule clause is non-monotone in 'x[2]' (e=2)"),
    ("needs-two-clauses",
     "array[1..2] of var bool: p :: founded;\nvar bool: q;\n"
     "rule (forall (i in 1..2) (p[i] <- q \\/ not q :: head(p[i])));\n", None,
     "<model>:3:1: a rule must flatten to a single clause, this one needs 2 "
     "(i=1)"),
    ("needs-two-clauses-for-equality",
     "array[1..2] of var 0..9: a :: founded;\n"
     "rule (forall (i in 1..2) (a[i] = 3 :: head(a[i])));\n", None,
     "<model>:2:1: a rule must flatten to a single clause, this one needs 2 "
     "(i=1)"),
    ("head-not-increasing",
     "array[1..2] of var bool: p :: founded;\n"
     "rule (forall (i in 1..2) (not p[i] :: head(p[i])));\n", None,
     "<model>:2:1: head 'p[1]': clause is not increasing in the head (i=1)"),
    ("head-not-increasing-integer",
     "array[1..2] of var 0..9: a :: founded;\n"
     "rule (forall (i in 1..2) (-a[i] >= -3 :: head(a[i])));\n", None,
     "<model>:2:1: head 'a[1]': clause is not increasing in the head (i=1)"),
    ("head-cancelled-by-a-self-loop",
     "int: E = 2;\narray[1..E] of int: from = [1, 2];\n"
     "array[1..E] of int: to = [2, 2];\nvar bool: p;\n"
     "array[1..2] of var -9..0: d :: founded;\n"
     "rule (forall (e in 1..E)"
     " (d[from[e]] >= d[to[e]] + 1 \\/ p :: head(d[from[e]])));\n", None,
     "<model>:6:1: head 'd[2]': head does not occur in the clause (e=2)"),
    ("head-twice",
     "array[1..2] of var 0..9: a :: founded;\n"
     "rule (forall (i in 1..2) (a[i] >= 1 \\/ a[i] >= 2 :: head(a[i])));\n",
     None, "<model>:2:1: head 'a[1]': head occurs more than once (i=1)"),
    ("head-not-founded",
     "array[1..2] of var bool: p;\n"
     "rule (forall (i in 1..2) (p[i] :: head(p[i])));\n", None,
     "<model>:2:1: head 'p[1]': head is not a founded variable (i=1)"),
    ("budget-in-one-instance",
     "array[1..15] of var bool: u;\narray[1..15] of var bool: v;\n"
     "constraint forall (k in 1..2) (exists (i in 1..15) (u[i] /\\ v[i]));\n",
     None,
     "<model>:3:1: flattening needs more than 20000 clauses; rewrite the item"),
    ("budget-across-instances",
     "array[1..12000] of var bool: p :: founded;\nvar bool: q;\nvar bool: r;\n"
     "rule (forall (i in 1..12000) (p[i] <- q /\\ r :: head(p[i])));\n", None,
     "<model>:4:1: flattening needs more than 20000 clauses; rewrite the item"),
    ("budget-counts-tautologies",
     "var bool: p;\nconstraint exists (i in 1..5001) (p /\\ not p);\n", None,
     "<model>:2:1: flattening needs more than 20000 clauses; rewrite the item"),
    ("sum-as-condition",
     "array[1..2] of int: w = [1, 2];\nvar bool: p;\n"
     "constraint forall (i in 1..2) (exists (j in 1..2) "
     "(sum (k in 1..j) (w[k])));\n", None,
     "<model>:3:52: sum is not a condition (i=1, j=1)"),
    ("bool2int-of-an-integer",
     "array[1..2] of var 0..3: c;\n"
     "solve minimize sum (i in 1..2) (bool2int(c[i]));\n", None,
     "<model>:2:33: bool2int needs a Boolean variable (i=1)"),
]


@pytest.mark.parametrize("text,rename,expected",
                         [case[1:] for case in ERROR_CASES],
                         ids=[case[0] for case in ERROR_CASES])
def test_grounding_errors_keep_their_text_span_and_binding(text, rename,
                                                           expected):
    model = parse_model(text)
    if rename is not None:
        model = _renamed(model, *rename)
    with pytest.raises(GroundingError) as caught:
        ground(model)
    assert str(caught.value) == expected
    assert str(caught.value).startswith(f"{caught.value.span}: ")
