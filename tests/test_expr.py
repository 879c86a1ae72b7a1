import random

import pytest
from hypothesis import given, strategies as st

from jacfact.expr import (
    CyclicReferenceError,
    ExprError,
    ExprSet,
    ExprSyntaxError,
    Prod,
    Sum,
    Sym,
    UNIT,
    add,
    base_symbols,
    canonical,
    canonical_text,
    check_references,
    equivalent_form,
    expand_expr,
    expand_refs,
    fma_cost,
    format_expr,
    format_exprset,
    free_symbols,
    inline_single_use,
    prod,
    reference_order,
    symbol_occurrences,
)
from jacfact.exprparse import parse_expr, parse_exprset

from jacfact.graph import parse_graph
from jacfact.oracle import check_equiv, draw_trials, eval_exprset

from conftest import load_exprset, random_exprset


def test_parse_product_of_sums():
    e = parse_expr("(e1*e3+e2*e4)*(e5*e7+e6*e8)")
    assert isinstance(e, Prod)
    assert all(isinstance(f, Sum) for f in e.factors)
    assert format_expr(e) == "(e1*e3+e2*e4)*(e5*e7+e6*e8)"


def test_unit_elimination():
    assert parse_expr("1*e5") == Sym("e5")
    assert parse_expr("1*1") is UNIT
    assert parse_expr("e1*1*e2") == Prod((Sym("e1"), Sym("e2")))


def test_syntax_error_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("e1*(e2+")
    assert err.value.position == 7


@pytest.mark.parametrize("line", ["J[a,b] = (x", "s1 = (x"])
def test_exprset_syntax_error_names_its_line(line):
    with pytest.raises(ExprSyntaxError) as err:
        parse_exprset("J[u,v] = e1\n" + line + "\n")
    assert str(err.value) == f"line 2: expected ')' (at position {len(line)})"
    assert err.value.position == len(line)  # the missing ')' ends the line


@pytest.mark.parametrize(
    "text",
    ["a", "a*b", "a+b", "a*(b+c)*d", "(a+b*c)*(d+e)+f", "s1*(e2+e3*s2)"],
)
def test_round_trip(text):
    assert format_expr(parse_expr(text)) == text


def test_normalization_flattens():
    a, b, c = Sym("a"), Sym("b"), Sym("c")
    e = Prod((Prod((a, b)), UNIT, c))
    assert e.factors == (a, b, c)
    e = Sum((Sum((a, b)), c))
    assert e.terms == (a, b, c)
    assert Prod((UNIT, a)) is a and Sum((a,)) is a
    assert Prod(()) is UNIT and Prod((UNIT, UNIT)) is UNIT
    assert Sum((UNIT, a)).terms == (UNIT, a)  # a unit term is kept
    with pytest.raises(ExprError, match="empty sum"):
        Sum(())


def test_canonical_sorts_sums_only():
    a = parse_expr("b*a+a*b")
    b = parse_expr("a*b+b*a")
    assert canonical(a) == canonical(b)
    assert canonical(parse_expr("a*b")) != canonical(parse_expr("b*a"))
    assert equivalent_form(parse_expr("x+y"), parse_expr("y+x"))


def test_fma_cost_eq1_eq2():
    assert fma_cost(load_exprset("eq1")) == 5
    assert fma_cost(load_exprset("eq2")) == 12


def test_fma_cost_shared_ref_counted_once():
    s = load_exprset("eq5")
    assert fma_cost(s) == 10


def test_fma_cost_unit_free():
    assert fma_cost(parse_expr("e1*e3+1*e5+e2*e4")) == 2


def test_expand_refs_recovers_eq3():
    s5 = load_exprset("eq5")
    eq3 = load_exprset("eq3")
    expanded = expand_refs(s5)
    assert equivalent_form(expanded.entries[0][1], eq3.entries[0][1])
    assert fma_cost(expanded) >= fma_cost(s5)


def test_expand_refs_identity_without_refs():
    s = load_exprset("eq1")
    assert expand_refs(s).entries == s.entries


def test_cyclic_reference_detected():
    s = ExprSet()
    s.define("s1", parse_expr("a*s1"))
    s.add_entry("y", "x", parse_expr("s1"))
    with pytest.raises(CyclicReferenceError):
        expand_refs(s)


def _first_error(check, defs, dm):
    try:
        for _, e in defs:
            check(e, dm)
    except CyclicReferenceError as exc:
        return str(exc)
    return None


def test_check_references_matches_expand_expr():
    found = 0
    for seed in range(300):
        rng = random.Random(seed)
        names = [f"s{i}" for i in range(rng.randint(1, 6))]
        defs = []
        for name in names:
            atoms = [Sym(rng.choice(names + list("abcdefgh"))) for _ in range(rng.randint(1, 4))]
            defs.append((name, add(prod(*atoms[:2]), *atoms[2:])))
        dm = dict(defs)
        clean = {}
        want = _first_error(expand_expr, defs, dm)
        got = _first_error(lambda e, d: check_references(e, d, clean), defs, dm)
        assert got == want
        found += want is not None
        _check_reference_order(ExprSet(defs), want)
    assert 50 < found < 250  # both outcomes are well represented


def _symbols_in_order(e):
    if isinstance(e, Sym):
        return [e.name]
    kids = getattr(e, "factors", ()) + getattr(e, "terms", ())
    return [name for k in kids for name in _symbols_in_order(k)]


def _ref_reference_order(s):
    """Depth-first postorder over the definitions in set order, references
    in term order: the order `reference_order` documents, recursively."""
    dm, out = s.def_map, {}

    def visit(name):
        if name not in out:
            for ref in _symbols_in_order(dm[name]):
                if ref in dm:
                    visit(ref)
            out[name] = None

    for name, _ in s.defs:
        visit(name)
    return list(out)


def _check_reference_order(s, cycle):
    """`reference_order(s)` raises `cycle`, the text of the first error
    ``expand_expr`` meets over the definitions in set order, or lists every
    name once, after every name it references."""
    if cycle is not None:
        with pytest.raises(CyclicReferenceError) as exc:
            reference_order(s)
        assert str(exc.value) == cycle
        return
    order = reference_order(s)
    dm = s.def_map
    assert order == _ref_reference_order(s)
    place = {name: i for i, name in enumerate(order)}
    for name, e in s.defs:
        assert all(place[ref] < place[name] for ref in free_symbols(e) & set(dm))


def test_fma_cost_deep_reference_chain():
    n = 3000
    lines = ["s0 = e0"] + [f"s{i} = s{i - 1}*e{i}+e{i}" for i in range(1, n + 1)]
    s = parse_exprset("\n".join(lines) + f"\nJ[a,b] = s{n}\n")
    assert fma_cost(s) == n


def test_fma_cost_cyclic_reference_message():
    s = parse_exprset("s1 = e1*s3\ns3 = e2+s4\ns4 = e3*s3\nJ[a,b] = s1\n")
    with pytest.raises(CyclicReferenceError) as exc:
        fma_cost(s)
    assert str(exc.value) == "cyclic reference: s1 -> s3 -> s4 -> s3"


def test_fma_cost_rejects_a_cycle_among_unused_definitions():
    s = parse_exprset("s1 = s2*a\ns2 = s1*b\nJ[r,t] = a*c\n")
    with pytest.raises(CyclicReferenceError, match=r"^cyclic reference: s2 -> s1 -> s2$"):
        fma_cost(s)


def test_define_rejects_duplicate_name():
    s = ExprSet([("s1", Sym("a"))])
    s.define("s2", parse_expr("a*b"))
    for name in ("s1", "s2"):
        with pytest.raises(ExprError, match=f"^duplicate definition for {name}$"):
            s.define(name, Sym("c"))
    assert [name for name, _ in s.defs] == ["s1", "s2"]


def test_exprset_round_trip():
    text = "s1 = e8*e11+e9*e12\nJ[v1,v9] = e1*(e3*e7*e11+e4*s1)\n"
    assert format_exprset(parse_exprset(text)) == text


def test_exprset_compares_and_prints_its_defs_and_entries():
    s = ExprSet([("s1", Sym("a"))], [(("r", "t"), Sym("s1"))])
    assert s == parse_exprset("s1 = a\nJ[r,t] = s1\n")
    assert s != parse_exprset("J[r,t] = a\n")
    assert repr(s) == "ExprSet(defs=[('s1', Sym(name='a'))], entries=[(('r', 't'), Sym(name='s1'))])"


def test_inline_single_use():
    s = ExprSet()
    s.define("s1", parse_expr("a*b"))
    s.define("s2", parse_expr("c*d"))
    s.add_entry("y", "x", parse_expr("s1*e+s2*f+s2*g"))
    out = inline_single_use(s)
    assert [n for n, _ in out.defs] == ["s2"]
    assert format_expr(out.entry_map()[("y", "x")]) == "a*b*e+s2*f+s2*g"


def _ref_inline_single_use(s):
    """Inlining as a fixpoint: rebuild the set until no name is used at
    most once."""
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


def test_inline_single_use_matches_the_fixpoint():
    changed = forward = dead = 0
    for seed in range(1500):
        s = random_exprset(random.Random(seed))
        want = _ref_inline_single_use(s)
        got = inline_single_use(s)
        assert (got.defs, got.entries) == (want.defs, want.entries)
        changed += want is not s
        forward += reference_order(s) != [name for name, _ in s.defs]
        used = set().union(*(free_symbols(e) for _, e in s.all_exprs()))
        dead += any(name not in used for name, _ in s.defs)
    # sets inlining leaves alone, forward references and dead definitions
    assert 500 < changed < 1500 and forward > 300 and dead > 300


_sym = st.sampled_from("abcdefgh")


def _exprs(depth):
    if depth == 0:
        return _sym.map(Sym)
    sub = _exprs(depth - 1)
    return st.one_of(
        _sym.map(Sym),
        st.lists(sub, min_size=2, max_size=3).map(lambda fs: prod(*fs)),
        st.lists(sub, min_size=2, max_size=3).map(lambda ts: add(*ts)),
    )


@given(_exprs(3))
def test_format_parse_identity(e):
    assert parse_expr(format_expr(e)) is e


@given(_exprs(3))
def test_normalize_idempotent(e):
    """A built node built again from its own children is the same node."""
    kids = getattr(e, "factors", ()) + getattr(e, "terms", ())
    assert not kids or type(e)(kids) is e


@given(_exprs(3))
def test_cost_nonnegative_and_canonical_invariant(e):
    assert fma_cost(e) >= 0
    assert fma_cost(canonical(e)) == fma_cost(e)


# ---------------------------------------------------------------------------
# the iterative walks against the recursive definitions they replaced


def _ref_canonical(e):
    if isinstance(e, Prod):
        return Prod(tuple(_ref_canonical(f) for f in e.factors))
    if isinstance(e, Sum):
        return Sum(tuple(sorted((_ref_canonical(t) for t in e.terms), key=format_expr)))
    return e


def _ref_expand(e, dm, path=()):
    if isinstance(e, Sym):
        if e.name not in dm:
            return e
        if e.name in path:
            raise CyclicReferenceError(f"cyclic reference: {' -> '.join(path + (e.name,))}")
        return _ref_expand(dm[e.name], dm, path + (e.name,))
    if isinstance(e, Prod):
        return prod(*[_ref_expand(f, dm, path) for f in e.factors])
    if isinstance(e, Sum):
        return add(*[_ref_expand(t, dm, path) for t in e.terms])
    return e


def _raw_expr(rng, depth, atoms="abcd"):
    """An expression built by the raw constructors from nested sums and
    products, unit factors, one-term sums and products, repeated symbols and
    shared subterms."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return UNIT if rng.random() < 0.15 else Sym(rng.choice(atoms))
    kids = [_raw_expr(rng, depth - 1, atoms) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.2:
        kids.append(kids[0])
    return (Prod if roll < 0.65 else Sum)(tuple(kids))


def test_canonical_matches_recursive_definition():
    for seed in range(500):
        e = _raw_expr(random.Random(seed), 5)
        want = _ref_canonical(e)
        assert canonical(e) == want
        assert canonical_text(e) == format_expr(want)


def _nodes(e):
    out, stack = [], [e]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(getattr(node, "factors", ()) + getattr(node, "terms", ()))
    return out


def test_canonical_texts_and_expansions_match_per_node_calls():
    defs = {"s1": parse_expr("a*(c+b)"), "s2": parse_expr("s1*d+b")}
    for seed in range(300):
        e = _raw_expr(random.Random(seed), 5, atoms=["a", "b", "s1", "s2"])
        for node in _nodes(e):
            assert canonical_text(node) == format_expr(_ref_canonical(node))
            assert _outcome(expand_expr, node, defs) == _outcome(_ref_expand, node, defs)


def _rebuilt(e, rng=None):
    """`e` built again from scratch by the raw constructors; with `rng`,
    each sum's terms in a shuffled order."""
    if isinstance(e, Prod):
        return Prod(tuple(_rebuilt(f, rng) for f in e.factors))
    if isinstance(e, Sum):
        terms = [_rebuilt(t, rng) for t in e.terms]
        if rng is not None:
            rng.shuffle(terms)
        return Sum(tuple(terms))
    return Sym(e.name) if isinstance(e, Sym) else e


def test_structurally_equal_expressions_are_one_node():
    draws = []
    for seed in range(300):
        rng = random.Random(seed)
        e = _raw_expr(rng, 4, atoms="abc")
        assert _rebuilt(e) is e
        assert parse_expr(format_expr(e)) is e
        assert hash(_rebuilt(e)) == hash(e)
        draws += [e, _rebuilt(e, rng)]
    # one canonical node exactly per structure of the recursive definition
    keys = [repr(_ref_canonical(e)) for e in draws]
    nodes = [canonical(e) for e in draws]
    same = 0
    for i in range(len(draws)):
        for j in range(i):
            assert (nodes[i] is nodes[j]) == (keys[i] == keys[j])
            same += keys[i] == keys[j]
    assert same > 300  # the shuffled copies and repeated small draws


def _raw_tree(rng, depth, atoms="abcd"):
    """An unnormalized expression as plain tuples: ``("*", kids)`` or
    ``("+", kids)`` with one to four kids, nested either way, unit leaves
    ``1`` and repeated subtrees."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return 1 if rng.random() < 0.15 else rng.choice(atoms)
    kids = [_raw_tree(rng, depth - 1, atoms) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.2:
        kids.append(kids[0])
    return ("*" if roll < 0.65 else "+", tuple(kids))


def _built(tree):
    """`tree` built through the raw constructors only."""
    if tree == 1:
        return UNIT
    if isinstance(tree, str):
        return Sym(tree)
    op, kids = tree
    return (Prod if op == "*" else Sum)(tuple(_built(k) for k in kids))


def _tree_normal(tree):
    """The normal form of a tuple tree: children of the same operator
    spliced in, unit factors dropped, a lone child lifted, an empty product
    ``1``."""
    if not isinstance(tree, tuple):
        return tree
    op, kids = tree
    flat = []
    for k in map(_tree_normal, kids):
        if isinstance(k, tuple) and k[0] == op:
            flat.extend(k[1])
        elif not (op == "*" and k == 1):
            flat.append(k)
    if len(flat) < 2:
        return flat[0] if flat else 1
    return (op, tuple(flat))


def _tree_text(tree):
    if not isinstance(tree, tuple):
        return str(tree)
    op, kids = tree
    if op == "+":
        return "+".join(map(_tree_text, kids))
    return "*".join(
        f"({_tree_text(k)})" if isinstance(k, tuple) and k[0] == "+" else _tree_text(k)
        for k in kids
    )


def test_raw_constructors_build_normal_nodes():
    for seed in range(500):
        tree = _raw_tree(random.Random(seed), 5)
        e = _built(tree)
        for node in _nodes(e):
            if isinstance(node, Prod):
                assert len(node.factors) > 1
                assert not any(isinstance(f, Prod) or f is UNIT for f in node.factors)
            elif isinstance(node, Sum):
                assert len(node.terms) > 1
                assert not any(isinstance(t, Sum) for t in node.terms)
        assert format_expr(e) == _tree_text(_tree_normal(tree))


def test_exprset_intern_names_each_structure_once():
    a, b, c = Sym("a"), Sym("b"), Sym("c")
    s = ExprSet()
    assert s.intern(a) is a and s.intern(UNIT) is UNIT
    s1 = s.intern(prod(a, b))
    assert s1 == Sym("s1") and s.intern(parse_expr("a*b")) is s1
    # one structure, reached through a reference or spelled out
    assert s.intern(prod(s1, c)) == Sym("s2")
    assert s.intern(prod(a, b, c)) == Sym("s2")
    # up to the order of sum terms
    assert s.intern(add(c, s1)) == Sym("s3")
    assert s.intern(parse_expr("a*b+c")) == Sym("s3")
    assert s.defs == [
        ("s1", prod(a, b)), ("s2", prod(s1, c)), ("s3", add(c, s1)),
    ]
    assert s.def_map == dict(s.defs) and s.def_map is not s.def_map
    assert fma_cost(s) == 2


def test_exprset_intern_names_as_without_its_expansion_memo():
    # the same names as interning by the expansion made afresh on every call
    rng = random.Random(7)
    s, names, by_key = ExprSet(), [], {}
    memo = {}
    for _ in range(300):
        atoms = [Sym(rng.choice("abcde")) for _ in range(4)] + [Sym(n) for n in names]
        kids = rng.sample(atoms, rng.randint(2, 3))
        if names and rng.random() < 0.3:  # a defined structure spelled out
            kids[0] = expand_expr(Sym(rng.choice(names)), s.def_map)
        e = (prod if rng.random() < 0.6 else add)(*kids)
        dm = s.def_map
        expected = by_key.get(canonical(expand_expr(e, dm)))
        assert expand_expr(e, dm, memo) is expand_expr(e, dm)
        got = s.intern(e)
        if expected is None:
            expected = by_key[canonical(expand_expr(e, dm))] = f"s{len(names) + 1}"
            names.append(expected)
        assert got == Sym(expected)
    assert [name for name, _ in s.defs] == names


def test_canonical_keeps_canonical_subterms():
    e = parse_expr("a*(b+c)+d")
    assert canonical(e) is e
    inner = e.terms[0]
    flipped = Sum((Sym("d"), inner))
    assert canonical(flipped) == e
    assert canonical(flipped).terms[0] is inner


def _outcome(f, *args):
    try:
        return f(*args)
    except CyclicReferenceError as exc:
        return str(exc)


def test_expand_expr_matches_recursive_definition():
    cycles = 0
    for seed in range(300):
        rng = random.Random(seed)
        names = [f"s{i}" for i in range(rng.randint(1, 5))]
        dm = {name: _raw_expr(rng, 3, ["a", "b", "c", *names]) for name in names}
        for name in names:
            want = _outcome(_ref_expand, Sym(name), dm)
            assert _outcome(expand_expr, Sym(name), dm) == want
            cycles += isinstance(want, str)
            # a name used twice shares its expansion
            twice = add(prod(Sym(name), Sym("a")), prod(Sym("b"), Sym(name)))
            got = _outcome(expand_expr, twice, dm)
            assert got == _outcome(_ref_expand, twice, dm)
            if not isinstance(got, str):
                assert fma_cost(got) == _ref_fma_cost(got)
                assert symbol_occurrences(got) == _ref_symbol_occurrences(got)
                assert free_symbols(got) == _ref_free_symbols(got)
    assert 50 < cycles < 1000  # both outcomes are well represented


def _deep_chain(n):
    lines = ["s0 = e0"] + [f"s{i} = s{i - 1}*e{i}+e{i}" for i in range(1, n + 1)]
    return parse_exprset("\n".join(lines) + f"\nJ[a,b] = s{n}\n")


def test_expand_refs_deep_reference_chain():
    s = _deep_chain(3000)
    out = expand_refs(s)
    assert out.defs == []
    assert fma_cost(out) == 3000  # a chain shares nothing, so nothing is lost
    batch = draw_trials(base_symbols(s), 1, 1)
    assert eval_exprset(out, batch) == eval_exprset(s, batch)


def test_inline_single_use_deep_reference_chain():
    s = _deep_chain(3000)
    out = inline_single_use(s)
    assert out.defs == []
    assert fma_cost(out) == 3000
    batch = draw_trials(base_symbols(s), 1, 1)
    assert eval_exprset(out, batch) == eval_exprset(s, batch)


def test_doubly_used_reference_chain_folds_once_per_node():
    # each definition uses the previous name twice, so the expanded entry is
    # a DAG of three products and sums per level whose tree has 2**61 - 1
    # products
    n = 60
    lines = ["s1 = a0*b0+c0*d0"] + [f"s{i} = s{i - 1}*e{i}+s{i - 1}*f{i}" for i in range(2, n + 1)]
    s = parse_exprset("\n".join(lines) + f"\nJ[r,t] = s{n}*z\n")
    out = expand_refs(s)
    (_, e), = out.entries
    assert fma_cost(out) == 2**61 - 1
    counts = symbol_occurrences(e)
    for i in range(2, n + 1):
        assert counts[f"e{i}"] == counts[f"f{i}"] == 2 ** (n - i)
    assert counts["a0"] == 2**59 and counts["z"] == 1
    assert base_symbols(out) == set(counts)
    clean = {}
    check_references(e, s.def_map, clean)
    assert clean == {}
    check_references(s.entries[0][1], s.def_map, clean)
    assert list(clean) == [f"s{i}" for i in range(1, n + 1)]


def deep_entry(n):
    """``a1*(b1+a2*(b2+...+an*bn))``, nested n deep, and a graph whose one
    Jacobian entry it is."""
    text = "".join(f"a{k}*(b{k}+" for k in range(1, n)) + f"a{n}*b{n}" + ")" * (n - 1)
    edges = ["e a1 r x1"] + [f"e a{k} x{k - 1} x{k}" for k in range(2, n + 1)]
    edges += [f"e b{k} x{k} t" for k in range(1, n + 1)]
    return text, "\n".join(edges) + "\n"


def test_deep_entry_parses_formats_and_verifies():
    text, graph_text = deep_entry(2000)
    e = parse_expr(text)
    assert format_expr(e) == text
    assert len(free_symbols(e)) == 4000
    s = parse_exprset(f"J[r,t] = {text}\n")
    assert format_exprset(s) == f"J[r,t] = {text}\n"
    assert check_equiv(parse_graph(graph_text), s).ok


def _ref_format(e):
    if e == UNIT:
        return "1"
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Sum):
        return "+".join(_ref_format(t) for t in e.terms)
    if isinstance(e, Prod):
        return "*".join(
            f"({_ref_format(f)})" if isinstance(f, Sum) else _ref_format(f)
            for f in e.factors
        )
    raise ExprError(f"not an expression: {e!r}")


def _ref_free_symbols(e):
    if isinstance(e, Sym):
        return {e.name}
    out = set()
    for sub in getattr(e, "factors", ()) + getattr(e, "terms", ()):
        out |= _ref_free_symbols(sub)
    return out


def _ref_fma_cost(e):
    kids = getattr(e, "factors", ()) + getattr(e, "terms", ())
    return (len(kids) - 1 if isinstance(e, Prod) else 0) + sum(map(_ref_fma_cost, kids))


def _ref_symbol_occurrences(e, out=None):
    out = {} if out is None else out
    if isinstance(e, Sym):
        out[e.name] = out.get(e.name, 0) + 1
    for sub in getattr(e, "factors", ()) + getattr(e, "terms", ()):
        _ref_symbol_occurrences(sub, out)
    return out


def _ref_parse(text):
    """Recursive descent over the same grammar, positions and messages."""
    import re

    name = re.compile(r"[A-Za-z_][A-Za-z0-9_.']*")
    pos = 0

    def peek():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1
        return text[pos] if pos < len(text) else ""

    def parse_sum():
        nonlocal pos
        terms = [parse_product()]
        while peek() == "+":
            pos += 1
            terms.append(parse_product())
        return add(*terms)

    def parse_product():
        nonlocal pos
        factors = [parse_atom()]
        while peek() == "*":
            pos += 1
            factors.append(parse_atom())
        return prod(*factors)

    def parse_atom():
        nonlocal pos
        ch = peek()
        if ch == "(":
            pos += 1
            inner = parse_sum()
            if peek() != ")":
                raise ExprSyntaxError("expected ')'", pos)
            pos += 1
            return inner
        if ch == "1":
            nxt = text[pos + 1 : pos + 2]
            if not nxt or not (nxt.isalnum() or nxt in "_.'"):
                pos += 1
                return UNIT
        m = name.match(text, pos)
        if not m:
            raise ExprSyntaxError("expected symbol, '1' or '('", pos)
        pos = m.end()
        return Sym(m.group())

    e = parse_sum()
    peek()
    if pos != len(text):
        raise ExprSyntaxError("trailing input", pos)
    return e


def _parsed(parse, text):
    try:
        return parse(text)
    except ExprSyntaxError as exc:
        return str(exc)


def test_parse_format_free_symbols_match_recursive_definitions():
    for seed in range(500):
        rng = random.Random(seed)
        e = _raw_expr(rng, 5, atoms=["a", "b1", "x.y", "s2'"])
        text = _ref_format(e)
        assert format_expr(e) == text
        assert parse_expr(text) == _ref_parse(text)
        # `e` and expressions that hold it, or a subterm of it, more than once
        inner = next((k for k in _nodes(e)[1:] if isinstance(k, (Prod, Sum))), e)
        for x in (e, prod(e, add(e, Sym("a"))), add(prod(e, inner), prod(inner, e, e))):
            assert free_symbols(x) == _ref_free_symbols(x)
            assert fma_cost(x) == _ref_fma_cost(x)
            assert symbol_occurrences(x) == _ref_symbol_occurrences(x)
        cut = rng.randrange(len(text) + 1)
        broken = text[:cut] + rng.choice(["(", ")", "*", "+", " ", "#", "1"]) + text[cut:]
        assert _parsed(parse_expr, broken) == _parsed(_ref_parse, broken)
