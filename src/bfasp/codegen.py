"""Generated code, for the grounder's items and the leaf evaluator's rule
shapes: source written with ``Writer`` and made into functions by
``define``.

What differs between the uses of one source (parameter values, variable
ids, rules, bounds, error texts and spans) is passed in when its code is
called, never written into it, so one model or rule layout always makes the
same text.  Compiled code is cached by that text, and its file name is
``<generated>``.
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
