"""Noncommutative symbolic expressions over edge labels.

Expressions are built from atomic symbols (edge labels or reference-variable
names), the unit constant ``1``, ordered products, and sums.  Products never
commute: factor order follows the root-to-terminal direction of the graph the
expression came from.  An :class:`ExprSet` bundles shared reference
definitions (``s1 = ...``) with the Jacobian entries that use them.

Expression nodes are hash-consed (Filliâtre & Conchon, *Type-safe modular
hash-consing*, 2006): every symbol, product and sum is built through one
table, so structurally equal expressions are the same object.  Whether two
expressions are the same is decided once, when they are built; every
consumer compares and hashes nodes by identity.  Nodes are also built
normal: a product or sum flattens nested products or sums and drops unit
factors as it is built, so no caller ever normalizes.  A product or sum
keeps its canonical form and its canonical text once worked out.
"""
from __future__ import annotations

import operator
import re
import weakref
from dataclasses import dataclass, field


class ExprError(ValueError):
    pass


class ExprSyntaxError(ExprError):
    """Raised by the parser; carries the reason and the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.reason = message
        self.position = position


class CyclicReferenceError(ExprError):
    pass


# (class, name or children) -> the one node of that structure.  Weak, so a
# node lives only while an expression or a caller holds it.
_table = weakref.WeakValueDictionary()


class Expr:
    """An interned, immutable expression node: equality is identity and the
    hash is O(1), whatever the depth."""

    __slots__ = ("__weakref__",)

    def __str__(self):
        return format_expr(self)


class Sym(Expr):
    """An atomic symbol: an edge label or a reference-variable name."""

    __slots__ = ("name",)

    def __new__(cls, name):
        node = _table.get((cls, name))
        if node is None:
            node = _table[cls, name] = object.__new__(cls)
            node.name = name
        return node

    def __repr__(self):
        return f"Sym(name={self.name!r})"


class _Unit(Expr):
    __slots__ = ()

    def __new__(cls):
        return UNIT

    def __repr__(self):
        return "UNIT"


UNIT = object.__new__(_Unit)


class _Compound(Expr):
    """A product or a sum of child nodes, with its forms once worked out.

    Built normal: children of the same kind are spliced in, unit factors of
    a product are dropped, and a product or sum left with one child is that
    child.  An empty product is ``UNIT``; an empty sum raises.

    ``_canonical`` holds the canonical form: None until worked out, False
    when the form is the node itself (so no node refers to itself).  A
    canonical node keeps its text in ``_text``.
    """

    __slots__ = ("_canonical", "_text")

    def __new__(cls, kids):
        flat = []
        for k in kids:
            if type(k) is cls:
                flat.extend(_kids(k))
            elif k is not UNIT or cls is Sum:
                flat.append(k)
        if len(flat) < 2:
            if flat:
                return flat[0]
            if cls is Sum:
                raise ExprError("empty sum")
            return UNIT
        kids = tuple(flat)
        node = _table.get((cls, kids))
        if node is None:
            node = _table[cls, kids] = object.__new__(cls)
            setattr(node, cls._field, kids)
            node._canonical = node._text = None
        return node

    def __repr__(self):
        return f"{type(self).__name__}({self._field}={_kids(self)!r})"


class Prod(_Compound):
    __slots__ = ("factors",)
    _field = "factors"


class Sum(_Compound):
    __slots__ = ("terms",)
    _field = "terms"


def _kids(node):
    return node.factors if isinstance(node, Prod) else node.terms


def prod(*factors):
    """Ordered product; flattens nested products and drops unit factors."""
    return Prod(factors)


def add(*terms):
    """Sum; flattens nested sums.  Order of terms is preserved as given."""
    return Sum(terms)


def _of_symbols(node):
    """Whether all children of product or sum `node` are symbols: the
    commonest node, canonical when a product."""
    return set(map(type, _kids(node))) == {Sym}


def _pending(e, done):
    """The products and sums of `e`, itself included, for which
    ``done(node)`` is false, each once, children before parents.

    The walk is iterative, so nesting depth is not bounded by the recursion
    limit, and it does not descend below a node that is done.
    """
    order, seen, stack = [], set(), [(e, False)]
    while stack:
        node, finished = stack.pop()
        if finished:
            order.append(node)
        elif isinstance(node, _Compound):
            if node not in seen and not done(node):
                seen.add(node)
                stack.append((node, True))
                if not _of_symbols(node):
                    stack.extend((k, False) for k in reversed(_kids(node)))
        elif not isinstance(node, Expr):
            raise ExprError(f"not an expression: {node!r}")
    return order


def canonical(e):
    """`e` with sum terms sorted; products keep their order.

    Addition commutes, so two expressions that differ only in the order of
    sum terms denote the same value and the same multiplication count, and
    have one canonical node.  Terms sort by their canonical text.  Worked
    out once per node: the canonical form is kept on the node.
    """
    if isinstance(e, _Compound) and e._canonical is None:
        for node in _pending(e, lambda n: n._canonical is not None):
            if isinstance(node, Prod):
                form = node if _of_symbols(node) else Prod(map(_canonical_form, node.factors))
            else:
                form = Sum(sorted(map(_canonical_form, node.terms), key=_text))
            node._canonical = False if form is node else form
            if isinstance(form, _Compound):
                form._canonical = False
    return _canonical_form(e)


def _canonical_form(e):
    """The canonical form kept on `e`, once worked out."""
    return e._canonical or e if isinstance(e, _Compound) else e


def canonical_text(e):
    """``format_expr(canonical(e))``."""
    return _text(canonical(e))


def _text(c):
    """Text of canonical node `c`, worked out once and kept on it."""
    if isinstance(c, Sym):
        return c.name
    if c is UNIT:
        return "1"
    if c._text is None:
        for node in _pending(c, lambda n: n._text is not None):
            if isinstance(node, Prod):
                node._text = "*".join(
                    f"({f._text})" if isinstance(f, Sum) else _text(f) for f in node.factors
                )
            else:
                node._text = "+".join(map(_text, node.terms))
    return c._text


def equivalent_form(a, b):
    """Structural equality up to the order of sum terms."""
    return canonical(a) is canonical(b)


def free_symbols(e):
    """Names of the symbols in `e`, walked iteratively."""
    out, seen, stack = set(), set(), [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Sym):
            out.add(node.name)
        elif isinstance(node, _Compound) and node not in seen:
            seen.add(node)
            stack.extend(node.factors if isinstance(node, Prod) else node.terms)
    return out


# ---------------------------------------------------------------------------
# formatting / parsing

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.']*")


class _Token(str):
    """Punctuation queued between the nodes `format_expr` has yet to print."""


_STAR, _PLUS, _OPEN, _CLOSE = map(_Token, "*+()")
_name = operator.attrgetter("name")


def format_expr(e):
    """Text of `e`: products join with ``*``, sums with ``+``, and a sum
    inside a product is parenthesized.  The walk is iterative, so nesting
    depth is not bounded by the recursion limit."""
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Prod) and set(map(type, e.factors)) == {Sym}:
        return "*".join(map(_name, e.factors))  # the commonest label
    out = []
    stack = [e]
    while stack:
        node = stack.pop()
        if type(node) is _Token:
            out.append(node)
        elif isinstance(node, Sym):
            out.append(node.name)
        elif isinstance(node, _Unit):
            out.append("1")
        elif isinstance(node, (Prod, Sum)):
            is_prod = isinstance(node, Prod)
            kids = node.factors if is_prod else node.terms
            if set(map(type, kids)) == {Sym}:
                # a flat product or sum of symbols, the commonest node
                out.append(("*" if is_prod else "+").join(map(_name, kids)))
                continue
            queued = []
            for k in reversed(kids):
                if is_prod and isinstance(k, Sum):
                    queued += (_CLOSE, k, _OPEN)
                else:
                    queued.append(k)
                queued.append(_STAR if is_prod else _PLUS)
            queued.pop()
            stack += queued
        else:
            raise ExprError(f"not an expression: {node!r}")
    return "".join(out)


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


def parse_expr(text):
    """Parse ``*``/``+``/parenthesis syntax into an expression."""
    p = _Parser(text)
    e = p.parse_sum()
    p.skip_ws()
    if p.pos != len(p.text):
        raise ExprSyntaxError("trailing input", p.pos)
    return e


# ---------------------------------------------------------------------------
# expression sets

_DEF_LINE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_.']*)\s*=\s*(.*)$")
_ENTRY_LINE = re.compile(r"^\s*J\[\s*([^,\]]+?)\s*,\s*([^,\]]+?)\s*\]\s*=\s*(.*)$")


@dataclass
class ExprSet:
    """Ordered reference definitions plus (root, terminal) Jacobian entries.

    A :class:`Sym` whose name matches a definition acts as a reference to it;
    definitions must be acyclic and are each counted once by the cost model.
    The set is also the reference registry of the planners: :meth:`intern`
    names each shared structure once.
    """

    defs: list = field(default_factory=list)  # [(name, Expr)]
    entries: list = field(default_factory=list)  # [((root, terminal), Expr)]
    _defs: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _interned: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self._defs.update(self.defs)

    @property
    def def_map(self):
        return dict(self._defs)

    def define(self, name, expr):
        if name in self._defs:
            raise ExprError(f"duplicate definition for {name}")
        self.defs.append((name, expr))
        self._defs[name] = expr

    def intern(self, expr):
        """The reference naming `expr`, defined as ``s<n>`` on first use.

        Symbols and ``1`` stand for themselves.  Interning is by the
        canonical node of the expansion, so one structure reached through a
        reference or spelled out shares one name.
        """
        if isinstance(expr, (Sym, _Unit)):
            return expr
        key = canonical(expand_expr(expr, self._defs))
        name = self._interned.get(key)
        if name is None:
            name = self._interned[key] = f"s{len(self.defs) + 1}"
            self.define(name, expr)
        return Sym(name)

    def add_entry(self, root, terminal, expr):
        self.entries.append(((root, terminal), expr))

    def entry_map(self):
        out = {}
        for pair, e in self.entries:
            out[pair] = add(out[pair], e) if pair in out else e
        return out

    def all_exprs(self):
        for name, e in self.defs:
            yield name, e
        for pair, e in self.entries:
            yield pair, e


def parse_exprset(text):
    s = ExprSet()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        entry = _ENTRY_LINE.match(line)
        m = entry or _DEF_LINE.match(line)
        if not m:
            raise ExprError(f"line {lineno}: expected 'name = expr' or 'J[r,t] = expr'")
        try:
            e = parse_expr(m.group(3) if entry else m.group(2))
        except ExprSyntaxError as exc:
            raise ExprSyntaxError(f"line {lineno}: {exc.reason}", exc.position) from None
        if entry:
            s.add_entry(m.group(1), m.group(2), e)
        else:
            s.define(m.group(1), e)
    return s


def format_exprset(s):
    lines = [f"{name} = {format_expr(e)}" for name, e in s.defs]
    lines += [f"J[{r},{t}] = {format_expr(e)}" for (r, t), e in s.entries]
    return "\n".join(lines) + ("\n" if lines else "")


def expand_expr(e, def_map):
    """Substitute reference definitions into an expression.

    The walk is iterative, so nesting depth is not bounded by the recursion
    limit, and each node and each definition is expanded once per call, its
    expansion shared by every use.  A cyclic reference raises
    :class:`CyclicReferenceError` naming the first cycle met depth-first,
    references taken in term order.
    """
    expanded = {}  # reference name -> its expansion
    done = {}  # product or sum -> its expansion
    path = {}  # reference names being expanded, outermost first

    def known(k):
        """The expansion of `k` if it is at hand, else None."""
        if isinstance(k, Sym):
            return expanded.get(k.name) if k.name in def_map else k
        return k if isinstance(k, _Unit) else done.get(k)

    stack = [] if known(e) is not None else [e]
    while stack:
        node = stack[-1]
        if isinstance(node, _Compound):
            if node in done:
                stack.pop()
                continue
            todo = [k for k in _kids(node) if known(k) is None]
            if todo:
                stack.extend(reversed(todo))
                continue
            stack.pop()
            done[node] = (prod if isinstance(node, Prod) else add)(*map(known, _kids(node)))
        elif isinstance(node, Sym):  # a reference, the only symbols stacked
            name = node.name
            body = def_map[name]
            value = known(body)
            if value is not None:
                stack.pop()
                path.pop(name, None)
                expanded[name] = value
            elif name in path:
                cycle = " -> ".join([*path, name])
                raise CyclicReferenceError(f"cyclic reference: {cycle}")
            else:
                path[name] = None
                stack.append(body)
        else:
            raise ExprError(f"not an expression: {node!r}")
    return known(e)


def check_references(e, def_map, clean):
    """Raise the :class:`CyclicReferenceError` that ``expand_expr(e, def_map)``
    would raise, without expanding anything.

    Depth-first over references in the order ``expand_expr`` takes them.  A
    name whose references were all followed without a cycle joins ``clean``
    and is never followed again, so one pass over a whole set is linear.
    """
    path = {}  # reference names being followed, outermost first
    frames = [(None, iter((e,)))]
    while frames:
        name, pending = frames[-1]
        node = next(pending, None)
        if node is None:
            frames.pop()
            if name is not None:
                path.popitem()
                clean.add(name)
        elif isinstance(node, Sym):
            ref = node.name
            if ref in def_map and ref not in clean:
                if ref in path:
                    cycle = " -> ".join([*path, ref])
                    raise CyclicReferenceError(f"cyclic reference: {cycle}")
                path[ref] = None
                frames.append((ref, iter((def_map[ref],))))
        elif isinstance(node, (Prod, Sum)):
            frames.append((None, iter(node.factors if isinstance(node, Prod) else node.terms)))
        elif not isinstance(node, _Unit):
            raise ExprError(f"not an expression: {node!r}")


def expand_refs(s):
    """Expression set with every reference substituted away.

    The value of every entry is preserved; the multiplication count may grow
    because sharing is lost.
    """
    dm = s.def_map
    out = ExprSet()
    for pair, e in s.entries:
        out.entries.append((pair, expand_expr(e, dm)))
    return out


def _expr_cost(e):
    """Multiplications in one expression: n - 1 per product of n factors."""
    total, stack = 0, [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Prod):
            total += len(node.factors) - 1
            stack.extend(node.factors)
        elif isinstance(node, Sum):
            stack.extend(node.terms)
        elif not isinstance(node, (Sym, _Unit)):
            raise ExprError(f"not an expression: {node!r}")
    return total


def fma_cost(s):
    """Total multiplication count; additions are fused and cost nothing.

    Accepts a single expression or an :class:`ExprSet`.  Each reference
    definition is counted once no matter how often it is used.  Products
    are built without unit factors, so multiplying by ``1`` is free.
    """
    if isinstance(s, Expr):
        return _expr_cost(s)
    dm, clean = s.def_map, set()
    for _, e in s.entries:
        check_references(e, dm, clean)  # raises on cyclic or malformed references
    total = 0
    for _, e in s.all_exprs():
        total += _expr_cost(e)
    return total


def symbol_occurrences(e):
    """Occurrence count per symbol (a symbol used twice counts twice)."""
    counts = {}
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Sym):
            counts[node.name] = counts.get(node.name, 0) + 1
        elif isinstance(node, (Prod, Sum)):
            stack.extend(node.factors if isinstance(node, Prod) else node.terms)
    return counts


def inline_single_use(s):
    """Drop definitions used at most once by substituting them in place.

    Shared structure stays named; one-shot names disappear, which keeps the
    set minimal without changing its value or multiplication count.  Names
    are never renumbered, so gaps in the s-numbering are expected.
    """
    while True:
        counts = {name: 0 for name, _ in s.defs}
        for _, e in s.all_exprs():
            for name, k in symbol_occurrences(e).items():
                if name in counts:
                    counts[name] += k
        victims = {n for n, k in counts.items() if k <= 1}
        if not victims:
            return s
        dm = {n: d for n, d in s.defs if n in victims}
        out = ExprSet()
        for name, e in s.defs:
            if name not in victims:
                out.define(name, expand_expr(e, dm))
        for (r, t), e in s.entries:
            out.add_entry(r, t, expand_expr(e, dm))
        s = out


def base_symbols(s):
    """Symbols that are not reference names (the instantiable labels)."""
    if isinstance(s, Expr):
        return free_symbols(s)
    dm = s.def_map
    out = set()
    for _, e in s.all_exprs():
        out |= free_symbols(e)
    return out - set(dm)
