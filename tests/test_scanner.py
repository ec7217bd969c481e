"""The scanner against a reference, and parse results pinned across formats.

Every token a reader sees (kind, value and location) must equal what
``oracles.reference_scan`` yields, on the bundled files, on hand-written
edge texts and on seeded random texts of each format.  Parse results and
error texts of the same texts are pinned: by value for the edge texts, and
by a digest of their ``repr`` for the random ones.
"""

import copy
import gc
import hashlib
import pickle
import random
import sys
import time
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

from bfasp import (
    BfaspError,
    FormatError,
    ParseError,
    format_program,
    ground,
    parse_assignment,
    parse_data,
    parse_ground_program,
    parse_model,
)
from bfasp.model_ast import ArrayLit, IntLit, Span
from bfasp.parser import _Parser

import oracles
from conftest import MODELS, build_example_one

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

BUNDLED = sorted([*MODELS.iterdir(), *(ROOT / "bench" / "models").iterdir(),
                  *GOLDEN.iterdir()])

# -- token identity -------------------------------------------------------------


def _walk(make, text: str) -> list:
    """The ``(kind, value, location)`` tokens a reader's cursor reads, or
    its error when the text holds a bad character."""
    try:
        cursor = make(text)
    except BfaspError as err:
        return [("error", str(err))]
    tokens = []
    while True:
        at = cursor._at
        value = cursor._values[at]
        kind, where = cursor.kind(value), cursor.location(at)
        assert cursor.where == where
        tokens.append((kind, value, where))
        if kind == "end":
            return tokens
        assert cursor.take(value)


def _expected(pattern, error, text: str, where) -> list:
    tokens = [(kind, value, where(line, col)) for kind, value, line, col
              in oracles.reference_scan(pattern, text)]
    kind, value, location = tokens[-1]
    if kind == "bad":
        return [("error", str(error(f"unexpected character {value!r}",
                                    location)))]
    return tokens


def _check_model_tokens(text: str):
    got = _walk(lambda t: _Parser(t, "f"), text)
    want = _expected(oracles.MODEL_TOKENS, ParseError, text,
                     lambda line, col: Span("f", line, col))
    assert got == want


def _check_ground_tokens(text: str):
    got = _walk(oracles.GroundReader, text)
    want = _expected(oracles.GROUND_TOKENS, FormatError, text,
                     lambda line, col: line)
    assert got == want


# hand-written texts at the scanner's edges, read in every format
EDGE_TEXTS = [
    "",
    " \t\r\n",
    "var bool: p; % a comment at the end, no newline",
    "x = 1; # a comment at the end, no newline",
    "var bool: p;\r\nconstraint p;\r\n",
    "x = 1;\r\ny = 2;\r\n",
    "\tvar\tbool:\tp;\n\tconstraint\tp;",
    "a = ٣;",
    "s = 1;\n٣",
    "var bool: p; constraint p @",
    "x = 1 @",
    "bool2int int_x var2 _ in_ x1 in int intx",
    "3var 12x 0..9 a..b ->-- <-= :: ==!= /\\\\/",
    "a = [1, -2, 3+4];",
    "a = [];",
    "a = [5 ];",
    "a = [5 , 6\n];",
    "var bool standard d[1,-2];\nconstraint ~d[1,-2] | 1*n >= -inf;",
    "d[1, 2] = 0;",
    "x = 1;\x0cy = 2;\x0bz = 3;",
    "a = 1;\x0cb = 2;\nzz = 3;",
    "a = 1; # note \x85 x\nb = 2;",
    "a = 1;\rb = 2; c = 3;",
    "! / \\ . ^ $ é",
]


def _files():
    return [(path.name, path.read_text()) for path in BUNDLED]


@pytest.mark.parametrize("name,text", _files())
def test_bundled_files_scan_like_the_reference(name, text):
    _check_model_tokens(text)
    _check_ground_tokens(text)


@pytest.mark.parametrize("text", EDGE_TEXTS)
def test_edge_texts_scan_like_the_reference(text):
    _check_model_tokens(text)
    _check_ground_tokens(text)


def test_random_texts_scan_like_the_reference():
    for fmt, text in _random_texts():
        if fmt in ("bfz", "bfd"):
            _check_model_tokens(text)
        else:
            _check_ground_tokens(text)


def test_the_first_of_many_distinct_stray_characters_is_found_in_one_pass():
    # looking each distinct bad value up on its own took seconds here
    text = "x = 1;\n" * 5000 + " ".join(chr(0x4E00 + i) for i in range(20000))
    for make, message in [(lambda t: _Parser(t, "f"), "f:5001:1: "),
                          (parse_ground_program, "line 5001: ")]:
        start = time.perf_counter()
        with pytest.raises(BfaspError) as err:
            make(text)
        assert time.perf_counter() - start < 1.0
        assert str(err.value) == message + "unexpected character '\u4e00'"


# -- pinned parse results -------------------------------------------------------


def _outcome(fmt: str, text: str) -> str:
    """``repr`` of the parse result, or the error with its location."""
    try:
        if fmt == "bfz":
            result = parse_model(text, "f")
        elif fmt == "bfd":
            result = parse_data(text, "f")
        elif fmt == "bfg":
            result = parse_ground_program(text)
        else:
            result = parse_assignment(text, build_example_one())
    except BfaspError as err:
        where = getattr(err, "span", getattr(err, "line", None))
        return f"{type(err).__name__}: {err} @ {where!r}"
    return repr(result)


def _digest(outcomes) -> str:
    return hashlib.sha256("\n".join(outcomes).encode()).hexdigest()[:16]


DATA_PINS = {
    "a = [1, -2, 3+4];":
        "(DataAssign(name='a', value=ArrayLit(elements=(IntLit(value=1, "
        "span=Span(file='f', line=1, col=6)), Neg(operand=IntLit(value=2, "
        "span=Span(file='f', line=1, col=10)), span=Span(file='f', line=1, "
        "col=9)), BinOp(op='+', left=IntLit(value=3, span=Span(file='f', "
        "line=1, col=13)), right=IntLit(value=4, span=Span(file='f', line=1, "
        "col=15)), span=Span(file='f', line=1, col=14))), span=Span(file='f',"
        " line=1, col=5)), span=Span(file='f', line=1, col=1)),)",
    "a = [];":
        "(DataAssign(name='a', value=ArrayLit(elements=(), span=Span(file='f',"
        " line=1, col=5)), span=Span(file='f', line=1, col=1)),)",
    "a = [5 ];":
        "(DataAssign(name='a', value=ArrayLit(elements=(IntLit(value=5, "
        "span=Span(file='f', line=1, col=6)),), span=Span(file='f', line=1, "
        "col=5)), span=Span(file='f', line=1, col=1)),)",
    "a = [5 , 6\n];":
        "(DataAssign(name='a', value=ArrayLit(elements=(IntLit(value=5, "
        "span=Span(file='f', line=1, col=6)), IntLit(value=6, "
        "span=Span(file='f', line=1, col=10))), span=Span(file='f', line=1, "
        "col=5)), span=Span(file='f', line=1, col=1)),)",
    "a = [5, 6 7];":
        "ParseError: f:1:11: expected ']', found '7' "
        "@ Span(file='f', line=1, col=11)",
    "a = [5, ];":
        "ParseError: f:1:9: expected an expression, found ']' "
        "@ Span(file='f', line=1, col=9)",
    "a = [5, ٣];":
        "ParseError: f:1:9: unexpected character '٣' "
        "@ Span(file='f', line=1, col=9)",
    "a = [5,\n% c\n  7;":
        "ParseError: f:3:4: expected ']', found ';' "
        "@ Span(file='f', line=3, col=4)",
    "a = 7 % at the end":
        "ParseError: f:1:19: expected ';', found end of input "
        "@ Span(file='f', line=1, col=19)",
}


@pytest.mark.parametrize("text", sorted(DATA_PINS))
def test_data_edge_texts_parse_as_pinned(text):
    assert _outcome("bfd", text) == DATA_PINS[text]


GROUND_PINS = {
    "var int 0..5 founded n;\nconstraint 2*n + 3 >= 7 | 1*n - 1 >= 0;":
        "Program(variables=(Variable(name='n', kind=<VarKind.FOUNDED: "
        "'founded'>, sort=<Sort.INT: 'int'>, lo=0, hi=5),), "
        "constraints=(Clause(lits=(), atoms=(LinearAtom(terms=((2, 0),), "
        "bound=4), LinearAtom(terms=((1, 0),), bound=1))),), rules=(), "
        "objective=None)",
    "var int 0..5 founded n;\nconstraint 1*n - -1 >= 0;":
        "FormatError: line 2: expected a term, found '-' @ 2",
    "var int 0..5 founded n;\nconstraint 2*n >= 1 | 3*m >= 0;":
        "FormatError: line 2: unknown variable 'm' @ 2",
    "var int 0..5 founded n;\nvar bool standard p;\n\nconstraint 2*p >= 1;":
        "FormatError: line 4: 'p' is bool, not usable as a linear term @ 4",
    "var int 0..5 founded n;\nconstraint 2*\n3 >= 1;":
        "FormatError: line 3: expected name, found '3' @ 3",
    "var int 0..5 founded n;\nconstraint 2 * n >= 1 @":
        "FormatError: line 2: unexpected character '@' @ 2",
    "var int 0..5 founded n;\nminimize 2*n + 1*q;":
        "FormatError: line 2: unknown variable 'q' @ 2",
    # an unknown head is reported on its own line, not the next token's
    "var int 0..5 founded n;\nrule 1*n >= 0 head m\n;":
        "FormatError: line 2: unknown variable 'm' @ 2",
}


@pytest.mark.parametrize("text", sorted(GROUND_PINS))
def test_ground_edge_texts_parse_as_pinned(text):
    assert _outcome("bfg", text) == GROUND_PINS[text]


# A digest of every outcome below; it changes exactly when some parse
# result or error text (message, span or line) changes.
BUNDLED_DIGEST = "1aa349f8f195bc74"
RANDOM_DIGEST = "78e4969e3f553dc3"


def test_bundled_and_edge_outcomes_are_pinned():
    texts = [text for _, text in _files()] + EDGE_TEXTS
    outcomes = [_outcome(fmt, text) for text in texts
                for fmt in ("bfz", "bfd", "bfg", "bfa")
                if fmt != "bfa" or _lines_end_at_newline(text)]
    assert _digest(outcomes) == BUNDLED_DIGEST


def test_random_outcomes_are_pinned():
    outcomes = [_outcome(fmt, text) for fmt, text in _random_texts()]
    assert _digest(outcomes) == RANDOM_DIGEST


# -- random texts ---------------------------------------------------------------

_SKIP = [" ", " ", " ", "\t", "\n", "\n", "\r\n", "  "]
_MODEL_WORDS = (
    "var bool int array of constraint rule solve satisfy minimize founded "
    "head forall exists sum where in not true false bool2int int_x var2 _ "
    "x y p q n a b e d i j k x1"
).split()
_MODEL_OPS = (
    ":: .. -> <- /\\ \\/ >= <= == != ; : , ( ) [ ] = < > + * -"
).split()
_GROUND_WORDS = (
    "var bool int standard founded constraint rule head minimize false inf "
    "n m p d[1,2] d[-1] x_1 s a b x y"
).split()
_GROUND_OPS = ">= .. | ~ ; * + = -".split()
_STRAY = ["@", "٣", "!", ".", "/", "\\", "é", "$", "[", "]", "#",
          "%", "{"]


def _soup(rand, words, ops, comment: str) -> str:
    """Tokens of one format, stray characters and comments, joined with or
    without skipped text between them."""
    parts = []
    for _ in range(rand.randint(0, 30)):
        roll = rand.random()
        if roll < 0.4:
            parts.append(rand.choice(words))
        elif roll < 0.6:
            parts.append(str(rand.choice([0, 1, 7, 12, 300, 4096])))
        elif roll < 0.9:
            parts.append(rand.choice(ops))
        elif roll < 0.95:
            parts.append(comment + rand.choice(["", " note", " @ ٣"])
                         + rand.choice(["\n", ""]))
        else:
            parts.append(rand.choice(_STRAY))
        if rand.random() < 0.7:
            parts.append(rand.choice(_SKIP))
    return "".join(parts)


def _mutate(rand, text: str) -> str:
    """``text`` with a few characters deleted, swapped or inserted."""
    chars = list(text)
    for _ in range(rand.randint(1, 3)):
        at = rand.randrange(len(chars) + 1)
        roll = rand.random()
        if roll < 0.4 and at < len(chars):
            del chars[at]
        elif roll < 0.6 and at + 1 < len(chars):
            chars[at], chars[at + 1] = chars[at + 1], chars[at]
        else:
            chars.insert(at, rand.choice(_STRAY + _SKIP + ["-", "3", ";"]))
    return "".join(chars)


def _data_text(rand) -> str:
    items = []
    for name in rand.sample(["n", "m", "w", "e", "d"], rand.randint(1, 3)):
        if rand.random() < 0.3:
            items.append(f"{name} = {rand.randint(0, 99)};")
            continue
        elements = []
        for _ in range(rand.randint(0, 8)):
            roll = rand.random()
            if roll < 0.7:
                elements.append(str(rand.randint(0, 999)))
            elif roll < 0.85:
                elements.append(f"-{rand.randint(0, 9)}")
            else:
                elements.append(f"{rand.randint(0, 9)}+{rand.randint(0, 9)}")
        sep = rand.choice([", ", ",", " , ", ",\n  "])
        items.append(f"{name} = [{sep.join(elements)}];")
    return rand.choice(["\n", "\r\n", " "]).join(items)


def _assignment_text(rand) -> str:
    names = ["s", "a", "b", "x", "y"]
    if rand.random() < 0.5:
        names = rand.sample(names + ["zz"], rand.randint(3, 6))
    lines = []
    for name in names:
        if name in "xy" and rand.random() < 0.8:
            value = rand.choice(["true", "false"])
        else:
            value = rand.choice(["0", "1", "-3", "9", "-inf", "inf", "99"])
        lines.append(f"{name} = {value};")
        if rand.random() < 0.2:
            lines.append(rand.choice(["----------", "==========", "# c"]))
    return rand.choice(["\n", "\r\n"]).join(lines)


def _random_texts() -> list:
    rand = random.Random(0x70CE)
    bundled = _files()
    models = [t for n, t in bundled if n.endswith(".bfz")]
    data = [t for n, t in bundled if n.endswith(".bfd")]
    grounds = [t for n, t in bundled if n.endswith(".bfg")]
    texts = []
    for _ in range(60):
        texts.append(("bfz", _soup(rand, _MODEL_WORDS, _MODEL_OPS, "%")))
        texts.append(("bfz", _mutate(rand, rand.choice(models))))
        texts.append(("bfd", _data_text(rand)))
        texts.append(("bfd", _mutate(rand, _data_text(rand))))
        texts.append(("bfd", _mutate(rand, rand.choice(data))))
        texts.append(("bfg", _soup(rand, _GROUND_WORDS, _GROUND_OPS, "#")))
        texts.append(("bfg", _mutate(rand, rand.choice(grounds))))
        program = oracles.random_mixed_program(
            rand, with_objective=rand.random() < 0.5)
        text = format_program(program).replace(
            "\n", rand.choice(["\n", "\r\n", " # c\n", "\n\t"]))
        texts.append(("bfg", text))
        texts.append(("bfg", _mutate(rand, text)))
        texts.append(("bfa", _assignment_text(rand)))
        texts.append(("bfa", _mutate(rand, _assignment_text(rand))))
    return [(fmt, text) for fmt, text in texts
            if fmt != "bfa" or _lines_end_at_newline(text)]


def _lines_end_at_newline(text: str) -> bool:
    """Whether ``str.splitlines`` breaks ``text`` where ``"\\n"`` does, and
    leaves no last line break.

    Assignment outcomes are pinned on such texts only: on them, splitting
    lines with ``splitlines`` and at ``"\\n"`` numbers every line alike.
    """
    return (not any(c in text for c in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")
            and "\r" not in text.replace("\r\n", "")
            and not text.endswith(("\n", "\r")))


# -- integer list spans ------------------------------------------------------------

# skipped text between list tokens: comments (holding digits, so a span
# found by searching the text would land in them), blank lines and tabs
_LIST_SKIP = ["", " ", " ", "\t", "\n", "\n\n", "\n\t", " % 12, 3\n",
              "% [4]\n\n"]
# elements that are not one integer token; each is read as an expression
_NON_LITERAL = ["-3", "2+1", "N", "- 40", "7 *N"]


def _list_literal(rand, elements: int, skip) -> str:
    tokens = ["["]
    for at in range(elements):
        if at:
            tokens.append(",")
        if rand.random() < 0.2:
            tokens.append(rand.choice(_NON_LITERAL))
        else:
            tokens.append(str(rand.choice([0, 5, 12, rand.randint(0, 9999)])))
    tokens.append("]")
    return "".join(token + skip() for token in tokens)


def _list_data_text(rand) -> str:
    """Scalars and several integer lists, one of them spread over many
    lines, with skipped text of every kind between any two tokens."""
    items = []
    for name in rand.sample(["n", "m", "w", "e", "d", "f"], rand.randint(2, 5)):
        if rand.random() < 0.25:
            items.append(f"{name} = {rand.randint(0, 99)};")
        elif rand.random() < 0.3:  # one element a line, often at column 1
            items.append(f"{name} = " + _list_literal(
                rand, rand.randint(5, 40), lambda: rand.choice(["\n", "\n\t"])
            ) + ";")
        else:
            items.append(f"{name} = " + _list_literal(
                rand, rand.randint(0, 25), lambda: rand.choice(_LIST_SKIP))
                + ";")
    return rand.choice(["\n", "\n\n", " % items\n", "\t"]).join(items)


def _element_spans(lists) -> list:
    """Per list, per element: an integer element's span, else None."""
    return [[e.span if isinstance(e, IntLit) else None for e in elements]
            for elements in lists]


def _reference_element_spans(text: str) -> list:
    """What ``_element_spans`` should give, from the reference tokens: the
    location of each element that is one integer token, else None.  A list
    is a ``[`` that follows ``=``; its elements are split at the commas
    outside brackets."""
    lists, depth, previous, element = [], 0, None, []
    for kind, value, line, col in oracles.reference_scan(oracles.MODEL_TOKENS,
                                                         text):
        if depth == 0:
            if value == "[" and previous == "=":
                lists.append([])
                depth, element = 1, []
        elif depth == 1 and value in (",", "]"):
            if element:
                (kind, line, col), *rest = element
                one_int = kind == "int" and not rest
                lists[-1].append(Span("f", line, col) if one_int else None)
            element = []
            depth -= value == "]"
        else:
            depth += (value in ("(", "[")) - (value in (")", "]"))
            element.append((kind, line, col))
        previous = value
    return lists


def test_integer_list_spans_equal_the_reference_token_locations():
    rand = random.Random(0x5BA)
    for _ in range(40):
        text = _list_data_text(rand)
        lists = [a.value.elements for a in parse_data(text, "f")
                 if isinstance(a.value, ArrayLit)]
        assert _element_spans(lists) == _reference_element_spans(text), text
        # the same list as a model parameter array's value
        size = rand.randint(1, 30)
        body = _list_literal(rand, size, lambda: rand.choice(_LIST_SKIP))
        text = (f"int: N = 2;\n\n% the array\narray[1..{size}] of int:\ta ="
                f"{rand.choice(_LIST_SKIP)}{body};\n")
        (decl,) = [p for p in parse_model(text, "f").params if p.dims]
        assert _element_spans([decl.value.elements]) == \
            _reference_element_spans(text), text


# -- integer lists read in bulk ------------------------------------------------------

# lists that are not read in bulk, and refused element by element
_FAULTY_LISTS = {
    "a = [1,];": "f:1:8: expected an expression, found ']'",
    "a = [1 2];": "f:1:8: expected ']', found '2'",
    "a = [1, 2": "f:1:10: expected ']', found end of input",
    "a = [,1];": "f:1:6: expected an expression, found ','",
}


def _model_for(assigns) -> str:
    """A model that declares the data's parameters and grounds one
    constraint per value, so that its ground program shows every value."""
    lines = ["int: N = 2;", "var -100000..100000: x;"]
    for assign in assigns:
        if isinstance(assign.value, ArrayLit):
            size = len(assign.value.elements)
            lines += [f"array[1..{size}] of int: {assign.name};",
                      f"constraint forall (i in 1..{size}) "
                      f"(x + i >= {assign.name}[i]);"]
        else:
            lines += [f"int: {assign.name};", f"constraint x >= {assign.name};"]
    return "\n".join(lines) + "\n"


def _data_read(text: str) -> tuple:
    """``parse_data``'s result on ``text`` (None on an error), not yet read,
    its outcome, and the ground program of the data (None on an error)."""
    try:
        data = parse_data(text, "f")
    except ParseError:
        return None, _outcome("bfd", text), None
    again = parse_data(text, "f")
    program = format_program(ground(parse_model(_model_for(again)), again))
    return data, _outcome("bfd", text), program


def test_lists_read_in_bulk_equal_lists_read_element_by_element(monkeypatch):
    rand = random.Random(0xB01C)
    texts = [_list_data_text(rand) for _ in range(40)] + list(_FAULTY_LISTS)
    bulk = [_data_read(text) for text in texts]
    # the same texts with every list read element by element
    monkeypatch.setattr(_Parser, "_int_list", lambda self, span: None)
    for text, (data, outcome, program) in zip(texts, bulk):
        want, want_outcome, want_program = _data_read(text)
        assert (outcome, program) == (want_outcome, want_program), text
        if data is not None:
            # hashed first, before a bulk-read list has made its elements
            assert list(map(hash, data)) == list(map(hash, want)), text
            assert data == want and repr(data) == repr(want), text
    for text, error in _FAULTY_LISTS.items():
        assert _outcome("bfd", text).startswith(f"ParseError: {error} @ ")
    # every list of integer literals alone was read in bulk
    lists = [a.value for data, _, _ in bulk for a in data or ()
             if isinstance(a.value, ArrayLit)]
    assert sum(lit.ints is not None for lit in lists) >= 10
    for lit in lists:
        literal = all(type(e) is IntLit for e in lit.elements)
        assert (lit.ints is not None) == (literal and bool(lit.elements))


def test_an_integer_list_holds_no_element_nodes_until_read():
    text = "a = [" + ", ".join(str(i * 37 % 1000) for i in range(9000)) + "];"
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        (assign,) = parse_data(text, "f")
        held = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert held < 100
    assert assign.value.ints == tuple(i * 37 % 1000 for i in range(9000))
    assert assign.value.elements[-1] == \
        IntLit(8999 * 37 % 1000, Span("f", 1, len(text) - 4))


_COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda lit: pickle.loads(pickle.dumps(lit)),
}


@pytest.mark.parametrize("how", sorted(_COPIES))
def test_integer_lists_copy_and_pickle_as_made_element_by_element(
        monkeypatch, how):
    text = "a = [3, 1,\n  4, 1, 5];"

    def read():
        (assign,) = parse_data(text, "f")
        return assign.value

    bulk = read()
    assert bulk.ints == (3, 1, 4, 1, 5)
    monkeypatch.setattr(_Parser, "_int_list", lambda self, span: None)
    alike = read()
    assert alike.ints is None
    # a bulk-read list is copied before its elements are read
    for lit in (bulk, alike):
        copied = _COPIES[how](lit)
        assert copied == alike and hash(copied) == hash(alike)
        assert repr(copied) == repr(alike)
        assert copied.elements[2] == IntLit(4, Span("f", 2, 3))


def test_integer_lists_are_immutable():
    (assign,) = parse_data("a = [3, 1];", "f")
    lit = assign.value
    for name in ("ints", "elements", "span"):
        with pytest.raises(FrozenInstanceError,
                           match=f"cannot assign to field '{name}'"):
            setattr(lit, name, None)
        with pytest.raises(FrozenInstanceError,
                           match=f"cannot delete field '{name}'"):
            delattr(lit, name)
    assert lit.ints == (3, 1) and lit.elements == (
        IntLit(3, Span("f", 1, 6)), IntLit(1, Span("f", 1, 9)))
    assert lit != lit.elements


# -- integers too long for int -----------------------------------------------------

_TOO_LONG = "1" * 5000
# the most digits int reads from a string, or 0 for no limit
_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not 0 < _INT_DIGITS < len(_TOO_LONG),
                    reason="int reads 5,000 digits from a string")
@pytest.mark.parametrize("fmt,text,where", [
    ("bfz", f"int: N = {_TOO_LONG};", "Span(file='f', line=1, col=10)"),
    ("bfd", f"N = {_TOO_LONG};", "Span(file='f', line=1, col=5)"),
    ("bfd", f"a = [1, 2,\n {_TOO_LONG}];", "Span(file='f', line=2, col=2)"),
    ("bfg", f"var int 0..5 founded n;\nconstraint 1*n >= {_TOO_LONG};", "2"),
    # after items that a generated skeleton reader reads
    ("bfg", "var int 0..5 founded n;\n"
     + "constraint 1*n >= 1;\n" * 40 + f"constraint 1*n >= {_TOO_LONG};",
     "42"),
    ("bfa", f"s = 1;\na = {_TOO_LONG};", "2"),
], ids=["bfz", "bfd", "bfd-list", "bfg", "bfg-generated", "bfa"])
def test_an_integer_too_long_for_int_is_refused_at_its_location(fmt, text,
                                                                 where):
    error = "ParseError: f:" if fmt in ("bfz", "bfd") else "FormatError: "
    outcome = _outcome(fmt, text)
    assert outcome.startswith(error), outcome
    assert outcome.endswith(f"integer of 5000 digits is too long (at most "
                            f"{_INT_DIGITS}) @ {where}"), outcome
