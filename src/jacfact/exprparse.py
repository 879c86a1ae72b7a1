"""Parsing of the text :func:`~jacfact.expr.format_expr` and
:func:`~jacfact.expr.format_exprset` write: ``name = expr`` defines a
reference and ``J[root,terminal] = expr`` is a Jacobian entry.  A syntax
error is an :class:`~jacfact.expr.ExprSyntaxError` carrying its position."""
from __future__ import annotations

import re

from .expr import UNIT, ExprError, ExprSet, ExprSyntaxError, Sym, add, prod

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.']*")
_DEF_LINE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_.']*)\s*=\s*(.*)$")
_ENTRY_LINE = re.compile(r"^\s*J\[\s*([^,\]]+?)\s*,\s*([^,\]]+?)\s*\]\s*=\s*(.*)$")


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            raise ExprSyntaxError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def parse_leaf(self, ch):
        """A symbol or ``1`` at the current position, whose first character
        is `ch`."""
        if ch == "1":
            nxt = self.text[self.pos + 1 : self.pos + 2]
            if not nxt or not (nxt.isalnum() or nxt in "_.'"):
                self.pos += 1
                return UNIT
        m = _NAME_RE.match(self.text, self.pos)
        if not m:
            raise ExprSyntaxError("expected symbol, '1' or '('", self.pos)
        self.pos = m.end()
        return Sym(m.group())

    def parse_sum(self):
        """``sum := product ('+' product)*``, ``product := atom ('*' atom)*``,
        ``atom := '(' sum ')' | '1' | name``.

        Iterative: each open parenthesis pushes the terms and factors of its
        enclosing sum, so nesting depth is not bounded by the recursion
        limit.
        """
        outer = []  # (terms, factors) of each enclosing sum
        terms, factors = [], []
        while True:
            ch = self.peek()
            if ch == "(":
                self.pos += 1
                outer.append((terms, factors))
                terms, factors = [], []
                continue
            factors.append(self.parse_leaf(ch))
            while True:
                ch = self.peek()
                if ch == "*":
                    self.pos += 1
                    break
                terms.append(prod(*factors))
                factors = []
                if ch == "+":
                    self.pos += 1
                    break
                value = add(*terms)
                if not outer:
                    return value
                self.expect(")")
                terms, factors = outer.pop()
                factors.append(value)


def parse_expr(text, start=0):
    """Parse ``*``/``+``/parenthesis syntax in ``text[start:]`` into an
    expression; a syntax error's position counts from the start of `text`."""
    p = _Parser(text)
    p.pos = start
    e = p.parse_sum()
    p.skip_ws()
    if p.pos != len(p.text):
        raise ExprSyntaxError("trailing input", p.pos)
    return e


def parse_exprset(text):
    s = ExprSet()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        entry = _ENTRY_LINE.match(raw)
        m = entry or _DEF_LINE.match(raw)
        if not m:
            raise ExprError(f"line {lineno}: expected 'name = expr' or 'J[r,t] = expr'")
        try:
            e = parse_expr(raw, m.start(3) if entry else m.start(2))
        except ExprSyntaxError as exc:
            raise ExprSyntaxError(f"line {lineno}: {exc.reason}", exc.position) from None
        if entry:
            s.add_entry(m.group(1), m.group(2), e)
        else:
            s.define(m.group(1), e)
    return s
