"""Instance-spec DSL: a small declarative language for building rings and
extensions.

Grammar (one statement per line; brackets allow continuation lines)::

    ring <name> = zmod(n)
                | gf(p[, k])
                | quotient(<name>, [poly, ...])
                | product(<name>, <name>, ...)
                | idealization(<name>, module([orders...][, v*mj -> poly, ...]))
    ext  <name> = extension(<ring name>, base=[elem, ...])
    option <name> = <int>

Polynomials are integer-coefficient expressions in declared generators
(``x`` for gf, the adjoined variables for quotient, ``m1..mk`` for
idealization modules); elements of product rings are written as tuples
``(expr, ..., expr)`` with one component per factor.  Parsing is total:
malformed input of any kind raises :class:`DslError` carrying the line and
column, never an unhandled exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import finring as fr
from . import extension as ex


class DslError(Exception):
    def __init__(self, message, line, col):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


# ----------------------------------------------------------------------
# tokens

_PUNCT = ("->", "(", ")", "[", "]", ",", "=", "+", "-", "*", "^")


@dataclass
class Tok:
    kind: str   # name | int | punct | newline | eof
    text: str
    line: int
    col: int


def tokenize(text):
    toks = []
    depth = 0
    line = 1
    col = 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "\n":
            if depth == 0:
                toks.append(Tok("newline", "\\n", line, col))
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("->", i):
            toks.append(Tok("punct", "->", line, col))
            i += 2
            col += 2
            continue
        if c in "()[],=+-*^":
            if c in "([":
                depth += 1
            elif c in ")]":
                depth = max(0, depth - 1)
            toks.append(Tok("punct", c, line, col))
            i += 1
            col += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Tok("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Tok("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise DslError(f"unexpected character {c!r}", line, col)
    toks.append(Tok("eof", "", line, col))
    return toks


# ----------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class PolyExpr:
    terms: tuple        # of (monomial, int coeff); monomial = ((var, exp), ...)


@dataclass(frozen=True)
class TupleExpr:
    items: tuple        # of PolyExpr | TupleExpr


@dataclass(frozen=True)
class RZmod:
    n: int


@dataclass(frozen=True)
class RGf:
    p: int
    k: int


@dataclass(frozen=True)
class RQuotient:
    base: str
    relations: tuple    # of PolyExpr


@dataclass(frozen=True)
class RProduct:
    factors: tuple      # of names


@dataclass(frozen=True)
class RIdealization:
    base: str
    orders: tuple
    action: tuple       # of (ring var, module var, PolyExpr)


@dataclass(frozen=True)
class ExtDecl:
    ring: str
    base_elems: tuple   # of PolyExpr | TupleExpr


@dataclass(frozen=True)
class InstanceSpec:
    rings: tuple        # of (name, ring ast)
    exts: tuple         # of (name, ExtDecl)
    options: tuple      # of (name, int)


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def err(self, msg, tok=None):
        tok = tok or self.peek()
        raise DslError(msg, tok.line, tok.col)

    def expect(self, kind, text=None):
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            self.err(f"expected {want!r}, found {t.text!r}")
        return self.next()

    def at_punct(self, text):
        t = self.peek()
        return t.kind == "punct" and t.text == text

    def skip_newlines(self):
        while self.peek().kind == "newline":
            self.next()

    # -- expressions ----------------------------------------------------

    def parse_int(self):
        t = self.expect("int")
        return int(t.text)

    def parse_elem(self):
        if self.at_punct("("):
            save = self.i
            self.next()
            first = self.parse_elem()
            if self.at_punct(","):
                items = [first]
                while self.at_punct(","):
                    self.next()
                    items.append(self.parse_elem())
                self.expect("punct", ")")
                return TupleExpr(tuple(items))
            # plain parenthesised polynomial: re-parse as poly
            self.i = save
            return self.parse_poly()
        return self.parse_poly()

    def parse_poly(self):
        terms = {}
        sign = 1
        if self.at_punct("+") or self.at_punct("-"):
            if self.next().text == "-":
                sign = -1
        while True:
            mono, coeff = self.parse_term()
            terms[mono] = terms.get(mono, 0) + sign * coeff
            if self.at_punct("+"):
                self.next()
                sign = 1
            elif self.at_punct("-"):
                self.next()
                sign = -1
            else:
                break
        return PolyExpr(tuple(sorted((m, c) for m, c in terms.items() if c)))

    def parse_term(self):
        coeff = 1
        mono = {}
        saw = False
        while True:
            t = self.peek()
            if t.kind == "int":
                coeff *= int(self.next().text)
                saw = True
            elif t.kind == "name":
                self.next()
                e = 1
                if self.at_punct("^"):
                    self.next()
                    e = self.parse_int()
                mono[t.text] = mono.get(t.text, 0) + e
                saw = True
            elif t.kind == "punct" and t.text == "(":
                self.err("nested parentheses are not supported in polynomials")
            else:
                break
            if self.at_punct("*"):
                self.next()
                continue
            break
        if not saw:
            self.err("expected a polynomial term")
        return tuple(sorted(mono.items())), coeff

    # -- statements -----------------------------------------------------

    def parse_program(self):
        rings, exts, options = [], [], []
        names = set()
        self.skip_newlines()
        while self.peek().kind != "eof":
            t = self.expect("name")
            if t.text == "ring":
                name_tok = self.expect("name")
                if name_tok.text in names:
                    self.err(f"duplicate name {name_tok.text!r}", name_tok)
                self.expect("punct", "=")
                rings.append((name_tok.text, self.parse_ring_expr(names)))
                names.add(name_tok.text)
            elif t.text == "ext":
                name_tok = self.expect("name")
                if name_tok.text in names:
                    self.err(f"duplicate name {name_tok.text!r}", name_tok)
                self.expect("punct", "=")
                exts.append((name_tok.text, self.parse_ext_expr(names)))
                names.add(name_tok.text)
            elif t.text == "option":
                name_tok = self.expect("name")
                self.expect("punct", "=")
                options.append((name_tok.text, self.parse_int()))
            else:
                self.err(f"expected 'ring', 'ext' or 'option', found {t.text!r}", t)
            if self.peek().kind == "newline":
                self.skip_newlines()
            elif self.peek().kind != "eof":
                self.err("expected end of statement")
        return InstanceSpec(tuple(rings), tuple(exts), tuple(options))

    def parse_ring_name(self, names):
        t = self.expect("name")
        if t.text not in names:
            self.err(f"unknown ring name {t.text!r}", t)
        return t.text

    def parse_ring_expr(self, names):
        t = self.expect("name")
        if t.text == "zmod":
            self.expect("punct", "(")
            n_tok = self.peek()
            n = self.parse_int()
            if n < 2:
                self.err("modulus must be >= 2", n_tok)
            self.expect("punct", ")")
            return RZmod(n)
        if t.text == "gf":
            self.expect("punct", "(")
            p_tok = self.peek()
            p = self.parse_int()
            if not fr.is_prime(p):
                self.err("characteristic must be a prime >= 2", p_tok)
            k = 1
            if self.at_punct(","):
                self.next()
                k_tok = self.peek()
                k = self.parse_int()
                if k < 1:
                    self.err("degree must be >= 1", k_tok)
            self.expect("punct", ")")
            return RGf(p, k)
        if t.text == "quotient":
            self.expect("punct", "(")
            base = self.parse_ring_name(names)
            self.expect("punct", ",")
            self.expect("punct", "[")
            rels = [self.parse_poly()]
            while self.at_punct(","):
                self.next()
                rels.append(self.parse_poly())
            self.expect("punct", "]")
            self.expect("punct", ")")
            return RQuotient(base, tuple(rels))
        if t.text == "product":
            self.expect("punct", "(")
            factors = [self.parse_ring_name(names)]
            while self.at_punct(","):
                self.next()
                factors.append(self.parse_ring_name(names))
            self.expect("punct", ")")
            if len(factors) < 2:
                self.err("product needs at least two factors")
            return RProduct(tuple(factors))
        if t.text == "idealization":
            self.expect("punct", "(")
            base = self.parse_ring_name(names)
            self.expect("punct", ",")
            self.expect("name", "module")
            self.expect("punct", "(")
            self.expect("punct", "[")
            orders = [self.parse_int()]
            while self.at_punct(","):
                save = self.i
                self.next()
                if self.peek().kind == "int":
                    orders.append(self.parse_int())
                else:
                    self.i = save
                    break
            self.expect("punct", "]")
            action = []
            while self.at_punct(","):
                self.next()
                rv = self.expect("name").text
                self.expect("punct", "*")
                mv = self.expect("name").text
                self.expect("punct", "->")
                action.append((rv, mv, self.parse_poly()))
            self.expect("punct", ")")
            self.expect("punct", ")")
            return RIdealization(base, tuple(orders), tuple(action))
        self.err(f"unknown ring constructor {t.text!r}", t)

    def parse_ext_expr(self, names):
        self.expect("name", "extension")
        self.expect("punct", "(")
        ring = self.parse_ring_name(names)
        self.expect("punct", ",")
        self.expect("name", "base")
        self.expect("punct", "=")
        self.expect("punct", "[")
        elems = []
        if not self.at_punct("]"):
            elems.append(self.parse_elem())
            while self.at_punct(","):
                self.next()
                elems.append(self.parse_elem())
        self.expect("punct", "]")
        self.expect("punct", ")")
        return ExtDecl(ring, tuple(elems))


def parse_spec(text) -> InstanceSpec:
    """Parse DSL text into an InstanceSpec; raises DslError with position."""
    if not isinstance(text, str):
        raise DslError("spec must be text", 1, 1)
    return _Parser(tokenize(text)).parse_program()


# ----------------------------------------------------------------------
# pretty printing (round-trip: parse(pretty(parse(x))) == parse(x))

def _poly_str(p: PolyExpr) -> str:
    if not p.terms:
        return "0"
    parts = []
    for mono, c in p.terms:
        mstr = "*".join(f"{v}^{e}" if e > 1 else v for v, e in mono)
        if not mstr:
            s = str(abs(c))
        elif abs(c) == 1:
            s = mstr
        else:
            s = f"{abs(c)}*{mstr}"
        parts.append(("- " if c < 0 else "+ ") + s)
    out = " ".join(parts)
    return out[2:] if out.startswith("+ ") else "-" + out[2:]


def _elem_str(e) -> str:
    if isinstance(e, TupleExpr):
        return "(" + ", ".join(_elem_str(i) for i in e.items) + ")"
    return _poly_str(e)


def pretty(spec: InstanceSpec) -> str:
    lines = []
    for name, val in spec.options:
        lines.append(f"option {name} = {val}")
    for name, r in spec.rings:
        if isinstance(r, RZmod):
            rhs = f"zmod({r.n})"
        elif isinstance(r, RGf):
            rhs = f"gf({r.p}, {r.k})" if r.k != 1 else f"gf({r.p})"
        elif isinstance(r, RQuotient):
            rhs = f"quotient({r.base}, [" + ", ".join(_poly_str(p) for p in r.relations) + "])"
        elif isinstance(r, RProduct):
            rhs = "product(" + ", ".join(r.factors) + ")"
        elif isinstance(r, RIdealization):
            body = "[" + ", ".join(str(o) for o in r.orders) + "]"
            for rv, mv, p in r.action:
                body += f", {rv}*{mv} -> {_poly_str(p)}"
            rhs = f"idealization({r.base}, module({body}))"
        else:
            raise TypeError(r)
        lines.append(f"ring {name} = {rhs}")
    for name, e in spec.exts:
        elems = ", ".join(_elem_str(el) for el in e.base_elems)
        lines.append(f"ext {name} = extension({e.ring}, base=[{elems}])")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# building

def eval_elem(ring: fr.FiniteRing, e) -> int:
    """Evaluate an element expression in a ring; raises RingError on
    structural mismatch (tuple vs non-product, unknown generator)."""
    if isinstance(e, TupleExpr):
        if ring.factors is None:
            raise fr.RingError("tuple element in a non-product ring")
        if len(e.items) != len(ring.factors):
            raise fr.RingError(
                f"tuple has {len(e.items)} components, ring has {len(ring.factors)}")
        comps = [eval_elem(f, item) for f, item in zip(ring.factors, e.items)]
        return fr.product_element(ring, comps)
    val = ring.zero
    for mono, c in e.terms:
        term = ring.int_elem(c)
        for v, exp in mono:
            if v not in ring.varmap:
                raise fr.RingError(f"unknown generator {v!r} in {ring.label}")
            for _ in range(exp):
                term = int(ring.mul[term, ring.varmap[v]])
        val = int(ring.add[val, term])
    return val


def build(spec: InstanceSpec, size_cap=None):
    """Construct every declared ring and extension.  Returns
    (rings dict, extensions dict); deterministic for equal specs."""
    cap = size_cap
    for name, val in spec.options:
        if name == "cap" and size_cap is None:
            cap = val
    if cap is None:
        cap = fr.DEFAULT_SIZE_CAP
    rings = {}
    for name, ast in spec.rings:
        if isinstance(ast, RIdealization):
            base = rings[ast.base]
            action = {}
            korders = len(ast.orders)
            rows = {}
            for rv, mv, p in ast.action:
                if not (mv.startswith("m") and mv[1:].isdigit()
                        and 1 <= int(mv[1:]) <= korders):
                    raise fr.RingError(f"unknown module generator {mv!r}")
                row = [0] * korders
                for mono, c in p.terms:
                    if len(mono) != 1 or mono[0][1] != 1 or \
                            not mono[0][0].startswith("m"):
                        raise fr.RingError(
                            "module action values must be linear in m1..mk")
                    row[int(mono[0][0][1:]) - 1] = c
                rows.setdefault(rv, {})[int(mv[1:]) - 1] = row
            for rv, per_gen in rows.items():
                mat = [per_gen.get(j, [0] * korders) for j in range(korders)]
                action[rv] = mat
            rings[name] = fr.idealization(base, ast.orders, action,
                                          size_cap=cap, label=name)
        elif isinstance(ast, RQuotient):
            base = rings[ast.base]
            rels = [fr.resolve_relation(base, p.terms) for p in ast.relations]
            rings[name] = fr.quotient_by_relations(base, rels, size_cap=cap,
                                                   label=name)
        elif isinstance(ast, RProduct):
            rings[name] = fr.product_ring([rings[f] for f in ast.factors],
                                          size_cap=cap, label=name)
        elif isinstance(ast, RZmod):
            rings[name] = fr.zmod(ast.n, size_cap=cap)
        elif isinstance(ast, RGf):
            rings[name] = fr.gf(ast.p, ast.k, size_cap=cap)
        else:
            raise TypeError(ast)
    exts = {}
    for name, decl in spec.exts:
        S = rings[decl.ring]
        gens = [eval_elem(S, e) for e in decl.base_elems]
        base = ex.generated_subring(S, ex.prime_subring(S), gens)
        exts[name] = ex.Extension(S, base, name=name)
    return rings, exts


def build_extension(text, size_cap=None) -> ex.Extension:
    """Parse and build; the text must declare exactly one extension."""
    spec = parse_spec(text)
    _, exts = build(spec, size_cap)
    if len(exts) != 1:
        raise DslError(f"expected exactly one ext declaration, found {len(exts)}",
                       1, 1)
    return next(iter(exts.values()))
