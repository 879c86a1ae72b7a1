"""Noncommutative symbolic expressions over edge labels.

Expressions are built from atomic symbols (edge labels or reference-variable
names), the unit constant ``1``, ordered products, and sums.  Products never
commute: factor order follows the root-to-terminal direction of the graph the
expression came from.  An :class:`ExprSet` bundles shared reference
definitions (``s1 = ...``) with the Jacobian entries that use them; the
text :func:`format_exprset` prints is read back by :mod:`jacfact.exprparse`.

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
import weakref
from collections import ChainMap

from .graph import UNIT_LABEL


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
    name = UNIT_LABEL  # so `.name` gives any atom's label

    def __new__(cls):
        return UNIT

    def __repr__(self):
        return "UNIT"


UNIT = object.__new__(_Unit)


def atom(label):
    """The expression of edge label `label`: ``UNIT`` for the unit label,
    else the symbol; ``.name`` turns it back into the label."""
    return UNIT if label == UNIT_LABEL else Sym(label)


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


def _pending(e, done=None):
    """The products and sums of `e`, itself included, for which
    ``done(node)`` is false (all of them when `done` is None), each once,
    children before parents, children in term order.

    The walk is iterative, so nesting depth is not bounded by the recursion
    limit, and it does not descend below a node that is done.
    """
    order, seen = [], set()
    frames = [(None, iter((e,)))]  # (node whose children these are, its children)
    while frames:
        node, kids = frames[-1]
        for k in kids:
            if type(k) is Sym:  # the commonest child
                continue
            if isinstance(k, _Compound):
                if k not in seen and (done is None or not done(k)):
                    seen.add(k)
                    frames.append((k, iter(_kids(k))))
                    break
            elif not isinstance(k, Expr):
                raise ExprError(f"not an expression: {k!r}")
        else:
            frames.pop()
            if node is not None:
                order.append(node)
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
    if isinstance(c, (Sym, _Unit)):
        return c.name
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
    """Names of the symbols in `e`."""
    if isinstance(e, Sym):
        return {e.name}
    return {k.name for node in _pending(e) for k in _kids(node) if isinstance(k, Sym)}


# ---------------------------------------------------------------------------
# formatting


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
    out = []
    stack = [e]
    while stack:
        node = stack.pop()
        if type(node) is _Token:
            out.append(node)
        elif isinstance(node, (Sym, _Unit)):
            out.append(node.name)
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


# ---------------------------------------------------------------------------
# expression sets


class ExprSet:
    """Ordered reference definitions plus (root, terminal) Jacobian entries.

    A :class:`Sym` whose name matches a definition acts as a reference to it;
    definitions must be acyclic and are each counted once by the cost model.
    The set is also the reference registry of the planners: :meth:`intern`
    names each shared structure once.
    """

    def __init__(self, defs=None, entries=None):
        self.defs = [] if defs is None else defs  # [(name, Expr)]
        self.entries = [] if entries is None else entries  # [((root, terminal), Expr)]
        self._defs = dict(self.defs)
        self._interned = {}
        self._expanded = {}
        self._reserved = set()

    def __eq__(self, other):
        if type(other) is not ExprSet:
            return NotImplemented
        return (self.defs, self.entries) == (other.defs, other.entries)

    def __repr__(self):
        return f"ExprSet(defs={self.defs!r}, entries={self.entries!r})"

    @property
    def def_map(self):
        return dict(self._defs)

    def define(self, name, expr):
        if name in self._defs:
            raise ExprError(f"duplicate definition for {name}")
        self.defs.append((name, expr))
        self._defs[name] = expr

    def reserve(self, names):
        """Keep :meth:`intern` from naming a reference after any of `names`,
        the labels of the planner's input."""
        self._reserved.update(names)

    def intern(self, expr):
        """The reference naming `expr`, defined on first use as ``s<n>`` for
        the least n past the definitions so far whose name is neither
        defined nor reserved.

        Symbols and ``1`` stand for themselves.  Interning is by the
        canonical node of the expansion, so one structure reached through a
        reference or spelled out shares one name.  The set keeps every
        reference expansion it has made, which never goes stale because a
        definition never changes, so an expression is expanded only down to
        the references it uses, not through them.
        """
        if isinstance(expr, (Sym, _Unit)):
            return expr
        key = canonical(expand_expr(expr, self._defs, self._expanded))
        name = self._interned.get(key)
        if name is None:
            n = len(self.defs) + 1
            while f"s{n}" in self._defs or f"s{n}" in self._reserved:
                n += 1
            name = self._interned[key] = f"s{n}"
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


def format_exprset(s):
    lines = [f"{name} = {format_expr(e)}" for name, e in s.defs]
    lines += [f"J[{r},{t}] = {format_expr(e)}" for (r, t), e in s.entries]
    return "\n".join(lines) + ("\n" if lines else "")


def expand_expr(e, def_map, expanded=None):
    """Substitute reference definitions into an expression.

    Each definition `e` reaches is expanded once, iteratively, and its
    expansion shared by every use.  `expanded` (reference name -> its expansion)
    carries those expansions from call to call; it must only ever be used
    with one `def_map` whose definitions do not change.  A cyclic reference
    raises the :class:`CyclicReferenceError` of :func:`check_references`.
    """
    if expanded is None:
        expanded = {}
    if isinstance(e, Sym) and (e.name in expanded or e.name not in def_map):
        return expanded.get(e.name, e)  # a label or a name expanded before
    new = {}
    check_references(e, def_map, ChainMap(new, expanded))
    for name in new:
        expanded[name] = _substitute(def_map[name], expanded)
    return _substitute(e, expanded)


def _substitute(e, values):
    """`e` with every symbol named in `values` replaced by its value; a node
    none of whose children change is kept as it is."""
    done = {}  # product or sum -> its substitution

    def value(k):
        return values.get(k.name, k) if isinstance(k, Sym) else done.get(k, k)

    for node in _pending(e):
        kids = _kids(node)
        new = tuple(map(value, kids))
        done[node] = node if all(map(operator.is_, new, kids)) else type(node)(new)
    return value(e)


def check_references(e, def_map, clean):
    """Add to the mapping `clean` every name of `def_map` that `e` reaches
    through references and `clean` does not hold yet, each after every name
    it references.

    Depth-first over references in term order, iteratively.  A name of
    `clean` is never followed, so one pass over a whole set with one
    `clean` is linear.  A product or sum is not walked again in a call once
    its walk has finished; marking it when its walk starts would miss a
    cycle that comes back through it.  A cyclic reference raises
    :class:`CyclicReferenceError` naming the first cycle met.
    """
    path = {}  # reference names being followed, outermost first
    finished = set()  # products and sums walked without a cycle
    frames = [(None, iter((e,)))]  # (name or node whose walk this is, its children)
    while frames:
        owner, pending = frames[-1]
        node = next(pending, None)
        if node is None:
            frames.pop()
            if isinstance(owner, str):
                path.popitem()
                clean[owner] = None
            elif owner is not None:
                finished.add(owner)
        elif isinstance(node, Sym):
            ref = node.name
            if ref in def_map and ref not in clean:
                if ref in path:
                    cycle = " -> ".join([*path, ref])
                    raise CyclicReferenceError(f"cyclic reference: {cycle}")
                path[ref] = None
                frames.append((ref, iter((def_map[ref],))))
        elif isinstance(node, _Compound):
            if node not in finished:
                frames.append((node, iter(_kids(node))))
        elif not isinstance(node, _Unit):
            raise ExprError(f"not an expression: {node!r}")


def reference_order(s):
    """Names of the definitions of `s`, each after the names it references.

    Definitions are taken in set order and their references depth-first in
    term order, by :func:`check_references`' walk, so a set that defines
    every name before using it keeps its own order.  A cycle raises the
    :class:`CyclicReferenceError` that ``expand_expr`` raises on the first
    definition whose expansion meets it.
    """
    dm, clean = s.def_map, {}
    for name, e in s.defs:
        if name not in clean:
            check_references(e, dm, clean)
            clean[name] = None
    return list(clean)


def expand_refs(s):
    """Expression set with every reference substituted away.

    The value of every entry is preserved; the multiplication count may grow
    because sharing is lost.
    """
    dm, expanded = s.def_map, {}
    out = ExprSet()
    for pair, e in s.entries:
        out.entries.append((pair, expand_expr(e, dm, expanded)))
    return out


def _occurrences(e):
    """Each distinct node of `e` with the number of times it occurs in the
    tree of `e`: parents are counted before their children, so the walk is
    linear in the distinct nodes."""
    counts = {e: 1}
    for node in reversed(_pending(e)):
        n = counts[node]
        for k in _kids(node):
            counts[k] = counts.get(k, 0) + n
    return counts


def _expr_cost(e):
    """Multiplications in one expression: n - 1 per product of n factors."""
    return sum(
        n * (len(node.factors) - 1) for node, n in _occurrences(e).items() if isinstance(node, Prod)
    )


def fma_cost(s):
    """Total multiplication count; additions are fused and cost nothing.

    Accepts a single expression or an :class:`ExprSet`.  Each reference
    definition is counted once no matter how often it is used.  Products
    are built without unit factors, so multiplying by ``1`` is free.  A
    reference cycle raises :class:`CyclicReferenceError`, also one among
    definitions no entry uses; a cycle reached from an entry is named as
    from that entry.
    """
    if isinstance(s, Expr):
        return _expr_cost(s)
    dm, clean = s.def_map, {}
    for _, e in s.entries:
        check_references(e, dm, clean)  # raises on cyclic or malformed references
    for _, e in s.defs:
        check_references(e, dm, clean)
    total = 0
    for _, e in s.all_exprs():
        total += _expr_cost(e)
    return total


def symbol_occurrences(e):
    """Occurrence count per symbol (a symbol used twice counts twice)."""
    return {node.name: n for node, n in _occurrences(e).items() if isinstance(node, Sym)}


def inline_single_use(s):
    """Drop definitions used at most once by substituting them in place.

    Shared structure stays named; one-shot names disappear, which keeps the
    set minimal without changing its value or multiplication count.  Names
    are never renumbered, so gaps in the s-numbering are expected.

    One pass: definitions are visited in reverse :func:`reference_order`, so
    every user of a name is settled before the name.  A name used once is
    substituted into its user; a name no longer used at all is dropped, and
    the uses in its body go with it.
    """
    dm = s.def_map
    counts = dict.fromkeys(dm, 0)
    for _, e in s.all_exprs():
        for name, k in symbol_occurrences(e).items():
            if name in counts:
                counts[name] += k
    victims = {}
    for name in reversed(reference_order(s)):
        if counts[name] <= 1:
            victims[name] = dm[name]
            if not counts[name]:
                for ref, k in symbol_occurrences(dm[name]).items():
                    if ref in counts:
                        counts[ref] -= k
    if not victims:
        return s
    out = ExprSet()
    for name, e in s.defs:
        if name not in victims:
            out.define(name, expand_expr(e, victims))
    for (r, t), e in s.entries:
        out.add_entry(r, t, expand_expr(e, victims))
    return out


def base_symbols(s):
    """Symbols of set `s` that are not reference names (the instantiable
    labels)."""
    dm = s.def_map
    out = set()
    for _, e in s.all_exprs():
        out |= free_symbols(e)
    return out - set(dm)


def __getattr__(name):
    # perfbench/tests/test_bench_checker.py imports parse_exprset from here
    if name in ("parse_expr", "parse_exprset"):
        from . import exprparse

        return getattr(exprparse, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
