"""The skeleton readers of ``parse_ground_program`` against the token
grammar: the same programs and rule shapes, or the same error texts and
lines, on golden, random and mutated texts."""

import random
from pathlib import Path

import pytest

from bfasp import (
    Clause,
    FormatError,
    LinearAtom,
    Literal,
    Program,
    Rule,
    Sort,
    VarKind,
    Variable,
    format_program,
    ground_format,
    ground_reader,
    parse_ground_program,
)
from bfasp.parser import scan

from conftest import keyed_shapes
from oracles import (
    random_mixed_program,
    random_shaped_program,
    reference_read_ground,
)

GOLDEN = sorted((Path(__file__).resolve().parent / "golden").glob("*.bfg"))

# names the grammar also reads as words of its own
_KEYWORD_NAMES = ["head", "false", "inf", "rule", "var", "int", "minimize"]


def _read(read, text: str):
    """A program and its rule shapes, or an error's text and line."""
    try:
        program = read(text)
    except FormatError as err:
        return str(err), err.line
    return program, keyed_shapes(program)


def _random_texts(rand) -> list:
    texts = []
    for i in range(60):
        program = random_mixed_program(rand, max_vars=5,
                                       with_objective=i % 3 == 0)
        if i % 4 == 0:
            names = rand.sample(_KEYWORD_NAMES, min(len(_KEYWORD_NAMES),
                                                    len(program.variables)))
            program = Program(
                tuple(Variable(name, v.kind, v.sort, v.lo, v.hi)
                      for name, v in zip(names, program.variables)),
                program.constraints, program.rules, program.objective)
        texts.append(format_program(program))
    for _ in range(20):
        texts.append(format_program(random_shaped_program(
            rand, templates=rand.randint(1, 4), copies=rand.randint(1, 20))))
    return texts


# tokens put in place of a token or before it: every word and operator of
# the grammar, integers, an unknown name and an operator it never reads
_EDIT_TOKENS = ("var bool int standard founded constraint rule head minimize "
                "false inf ~ | >= .. * + - ; = 0 7 zz").split()
# objectives with a fault of each kind: an unknown name, no term, no name
# after ``*``, no ``;``
_FAULTY_OBJECTIVES = ["1*zz;", "- -;", "3 * ;", "1 + 2"]


def _mutants(rand, text: str) -> list:
    """``text`` laid out anew; with three of: a token deleted, repeated,
    replaced, inserted or swapped with the next, or the tokens cut after
    one; and with a faulty objective, or its first declaration, added."""
    tokens = scan(ground_format._TOKEN_RE, text)[:-1]
    out = [
        # items split over lines, and several items on one line
        "".join(c if c != " " or rand.random() < 0.5 else "\n"
                for c in text),
        text.replace(";\n", "; ", rand.randint(1, 5)),
        # a comment, a run of blanks or nothing between tokens
        "".join(token + rand.choice([" # a comment; var x\n", " \t  ", "\n",
                                     " "]) for token in tokens),
        "".join(token + rand.choice(["", " "]) for token in tokens),
    ]
    at = rand.randrange(len(text) + 1)
    out.append(text[:at] + rand.choice(["@", "\x00", "[", "\u0663", "."])
               + text[at:])
    if tokens:
        # the names of the text too, so that one may be declared twice or
        # read where the other sort belongs
        words = _EDIT_TOKENS + [t for t in tokens if t[:1].isalpha()]
        for edit in rand.sample(range(6), 3):  # three kinds a text
            at = rand.randrange(len(tokens))
            if edit == 0:
                edited = tokens[:at] + tokens[at + 1:]
            elif edit == 1:
                edited = tokens[:at + 1] + tokens[at:]
            elif edit == 2:
                edited = tokens[:at]
            elif edit == 3:
                edited = tokens[:at] + [rand.choice(words)] + tokens[at + 1:]
            elif edit == 4:
                edited = tokens[:at] + [rand.choice(words)] + tokens[at:]
            else:
                edited = (tokens[:at] + tokens[at + 1:at + 2]
                          + tokens[at:at + 1] + tokens[at + 2:])
            # a line each for some tokens, so that each fault's line shows
            # which of its item's tokens it is reported at
            out.append("".join(token + rand.choice(" \n") for token in edited))
    out.append(f"{text}minimize {rand.choice(_FAULTY_OBJECTIVES)}\n")
    if "var" in tokens:  # the first declaration again, a token a line
        at = tokens.index("var")
        out.append(text + "\n".join(tokens[at:tokens.index(";", at) + 1]))
    return out


@pytest.fixture(params=[1, 10**9], ids=["generated", "interpreted"])
def compile_at(request, monkeypatch):
    """Read every skeleton with a generated reader, or none."""
    monkeypatch.setattr(ground_reader, "_COMPILE_AT", request.param)


# bare names and constants in atoms, infinite bounds, objectives over
# both sorts, a name written like a keyword, and a repeated term
EDGES = [
    "var int 0..9 founded a;\nvar bool standard p;\n"
    "constraint a >= 3 | a + 2 >= 5 | 2 - 1*a >= 0 | 3 >= 1;\n"
    "rule p | - 1 + 1*a + 4 >= -inf head a;\nconstraint 1*a - 2 >= inf;\n"
    "minimize 2*a - p + 3 - 1;\n",
    "var int -inf..inf founded inf;\nvar bool founded head;\n"
    "rule head head head;\nrule 1*inf >= 0 | ~head head inf;\n"
    "constraint false;\nminimize 0;\n",
    "var int 0..3 founded n;\nrule 1*n + 2*n >= 1 head n;\n"
    "rule 1*n - - 1*n >= 1 head n;\n",
]


def _texts() -> list:
    rand = random.Random(0xB16)
    base = ([path.read_text() for path in GOLDEN] + EDGES
            + _random_texts(rand))
    return base + [m for text in base for m in _mutants(rand, text)]


TEXTS = _texts()


def test_the_inputs_cover_programs_and_faults():
    outcomes = [_read(reference_read_ground, text) for text in TEXTS]
    programs = [o for o in outcomes if isinstance(o[0], Program)]
    assert len(programs) > 150 and len(outcomes) - len(programs) > 150


def test_skeleton_readers_match_the_token_grammar(compile_at):
    for text in TEXTS:
        assert _read(parse_ground_program, text) == \
            _read(reference_read_ground, text), text


def test_skeleton_readers_hand_on_the_keyed_shapes(compile_at):
    rand = random.Random(7)
    texts = [path.read_text() for path in GOLDEN] + _random_texts(rand)
    # a skeleton that repeats a name, `a`, so that it is keyed rule by rule
    texts.append("".join(
        f"var bool standard p{i};\nvar int 0..5 founded a{i};\n"
        f"var int 0..5 {kind} b{i};\n"
        f"rule ~p{i} | 1*a{i} >= 0 | 1*b{i} - 1*a{i} >= 3 head a{i};\n"
        f"rule ~p{i} | 1*a{i} >= 0 | {i % 3 + 1}*b{i} - 1*a{i} >= 3 "
        f"head {'a' if i % 2 else 'b'}{i};\n"
        # a head outside the body, of either kind and sort
        f"rule 1*a{i} >= 0 head {'b' if i % 3 else 'p'}{i};\n"
        for i, kind in enumerate(["standard", "founded"] * 10)))
    for text in texts:
        if not isinstance(_read(reference_read_ground, text)[0], Program):
            continue  # a keyword name where the grammar reads the keyword
        program = parse_ground_program(text)
        assert "shapes" in vars(program)  # handed on, not keyed on demand
        assert program.shapes == keyed_shapes(program)
    assert len(set(program.shapes)) > 2


def test_a_run_of_one_skeleton_compiles_one_reader():
    ground_reader._generated.cache_clear()
    text = "".join(f"var int 0..{i} founded n{i};\n" for i in range(40))
    text += "".join(f"rule 1*n{i} - {i}*n{i + 1} >= -{i} head n{i};\n"
                    for i in range(39))
    program = parse_ground_program(text)
    assert ground_reader._generated.cache_info().currsize == 2
    assert program.rules[3] == Rule(Clause((), (LinearAtom(
        ((1, 3), (-3, 4)), -3),)), 3)
    assert program.variables[5] == Variable("n5", VarKind.FOUNDED, Sort.INT,
                                            0, 5)


def test_a_run_that_a_generated_reader_refuses_is_read_by_the_grammar(
        monkeypatch):
    # The walk is the format's grammar: should a generated reader ever
    # refuse a run that the walk reads, the walk's program stands, made
    # after the runs before it are read again by their readers.
    text = "".join(f"var int 0..{i} founded n{i};\n" for i in range(40))
    text += "".join(f"rule 1*n{i} - {i}*n{i + 1} >= -{i} head n{i};\n"
                    for i in range(39))
    want = parse_ground_program(text)
    generated, refused = ground_reader._generated, []

    def refusing(key):
        if not key.startswith("rule"):
            return generated(key)

        def read(*args):
            refused.append(key)
            raise KeyError(key)
        return read

    monkeypatch.setattr(ground_reader, "_generated", refusing)
    got = parse_ground_program(text)
    assert len(refused) == 1
    assert got == want and got.shapes == want.shapes == keyed_shapes(got)


def test_a_fault_is_reported_by_the_token_grammar():
    text = ("var bool standard p;\n" * 1
            + "".join(f"var bool standard q{i};\n" for i in range(30))
            + "constraint ~p | q3;\nconstraint ~p | zz;\n")
    with pytest.raises(FormatError) as err:
        parse_ground_program(text)
    assert str(err.value) == "line 33: unknown variable 'zz'"
    assert parse_ground_program(text.replace("zz", "q4")).constraints[-1] \
        == Clause((Literal(0, False), Literal(5, True)))
