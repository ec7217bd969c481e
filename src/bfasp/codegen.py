"""Generated code: source written with ``Writer`` and made into functions
by ``define``.  Its three users are the grounder (one function per model
item), the leaf evaluator (kernels per rule shape) and the ground-program
reader (one reader per item skeleton that comes often in a text).

What differs between the uses of one source (parameter values, variable
ids and names, rules, bounds, error texts and spans) is passed in when its
code is called, never written into it, so one model, rule layout or item
skeleton always makes the same text.  Compiled code is cached by that
text, and its file name is ``<generated>``.  The grounder and the reader
number the shapes of the rules they make with the same block,
``write_numbering``.
"""

import functools


@functools.lru_cache(maxsize=1024)
def _compiled(source: str):
    # the same models and layouts recur from program to program, and
    # compiling takes far longer than running the code once
    return compile(source, "<generated>", "exec")


def define(source: str, names: dict) -> dict:
    """What ``source``, run over a copy of ``names``, defines, by name."""
    namespace = dict(names)
    exec(_compiled(source), namespace)
    return namespace


class Writer:
    """Lines of source, indented by the blocks open where each is written."""

    def __init__(self, indent: int = 0):
        self.lines: list[str] = []
        self.indent = indent

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def open(self, header: str) -> None:
        """Write ``header`` and indent what follows, up to ``close``."""
        self.line(header)
        self.indent += 1

    def close(self) -> None:
        self.indent -= 1

    def text(self) -> str:
        return "\n".join(self.lines)


def write_numbering(writer: Writer, key: str, add: str) -> None:
    """Write the numbering of the shape of ``rule``, a rule whose shape is
    fixed by ``key``, an expression, among the rules one generated function
    makes: the first rule of a key is keyed in full by the line ``add``
    (a call of ``RuleShapes.add``), and the others repeat its number.  The
    code reads ``numbers`` (shape numbers by key), ``shapes`` and
    ``repeat``, its ``RuleShapes.repeat``."""
    writer.line(f"number = numbers.get({key})")
    writer.open("if number is None:")
    writer.line(add)
    writer.line(f"numbers[{key}] = shapes.last")
    writer.close()
    writer.line("else: repeat(number)")
