"""Recursive-descent parser and compiler for the field-expression language.

Grammar (standard precedence, ^ binds tightest and associates right):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?
    atom    := NUMBER | IDENT | FUNC '(' expr ')' | '(' expr ')'

Functions: exp, sin, cos, sqrt, conj.  Identifiers are free names.
:meth:`Expression.compile` binds each of them to a coordinate of one input
vector (the name tables are :func:`phhs.util.coordinate_names`) and builds a
plain Python function of that vector, once; an identifier the binding lacks
is an error at that point.  :func:`compile_points` (one expression) and
:func:`compile_vector` (the components of a field, complex on C^m or real on
the real layout, one source) are the routes from text to a field's
function: it takes a point or an ``(N, dim)`` stack of points, one per row.
Every compiled text has one single-point form, its :class:`Lane`, which
the ``lane`` attribute holds with the values of its args (a constant's is
its number, :func:`literal_lane`): the value at one point of Python
numbers as text, with numpy's bits, which the flows write inline into their
generated steppers and :func:`lane_function` writes out as a function.  Formulas of a few
named values, such as the RK4 stage, are text too
(:func:`formula_function`), and so is :func:`quotient`.  Every generated
text, its literals written into it, is compiled once per process
(:func:`generated`).
Expressions add to and multiply expressions or numbers, negate, and divide
a number, making the trees of composite fields.  ``conj`` exists so that anti-holomorphic
inputs can be written down and rejected by the numerical validators; it has no
symbolic derivative.  :meth:`Expression.diff` simplifies its tree; for a power
of two c, d(u/c) is u'/c and (c u)/c is u, both exact (:func:`_power_of_two`).

Parse errors carry the exact byte offset of the first byte at which no
grammar continuation exists, plus the set of acceptable token classes.
"""

import marshal
import math
import operator
import re
import struct
from collections import namedtuple
from functools import lru_cache
from textwrap import indent

import numpy as np

from .errors import ParseError

FUNCTIONS = {
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "sqrt": np.sqrt,
    "conj": np.conj,
}

# expression operator -> (Python operator in compiled source, constant folding)
BINARY = {
    "+": ("+", operator.add),
    "-": ("-", operator.sub),
    "*": ("*", operator.mul),
    "/": ("/", operator.truediv),
    "^": ("**", operator.pow),
}

_OPS = set("+-*/^()")


def _numpy(x):
    """A Python number as the numpy scalar of its kind, an int as a float64; anything else as it is."""
    kind = type(x)
    return np.complex128(x) if kind is complex else np.float64(x) if kind is float or kind is int else x


def _divide(a, b):
    """a / b as numpy divides, a Python float for two Python floats: :func:`quotient` where its own forms fail."""
    q = _numpy(a) / b
    return float(q) if type(a) is type(b) is float else q


def power(a, b):
    """a ** b as numpy's scalars take it, on Python numbers too.

    A Python complex to an integer float power n, -100 < n < 100, is the
    products of numpy's complex power, a Python complex: 1 for n = 0, 0 at a
    zero base for n > 0 and NaN + NaN j for n < 0, a, a a and a (a a) for
    n = 1, 2, 3, binary powering of |n| onto 1 + 0j past that and for every
    n < 0, whose power is then the reciprocal ``quotient(1 + 0j, r)`` of that.
    Any other power of two Python floats is numpy's, as a Python float.
    """
    if type(a) is complex and type(b) is float and b.is_integer() and -100.0 < b < 100.0:
        n, r = int(b), 1 + 0j
        if n == 0:
            return r
        if not a:
            return 0j if n > 0 else complex(math.nan, math.nan)
        if 0 < n < 4:
            return (a, a * a, a * (a * a))[n - 1]
        m = abs(n)
        while True:
            if m & 1:
                r *= a
            m >>= 1
            if not m:
                return r if n > 0 else complex(quotient(1 + 0j, r))  # a zero r divides as numpy scalars
            a *= a
    r = _numpy(a) ** b
    return float(r) if type(a) is type(b) is float else r


def _from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _literal(value):
    """Source text of the number ``value`` that evaluates to its type and its bits, a NaN's included."""
    kind = type(value).__name__  # float, complex, or numpy's float64 or complex128
    if isinstance(value, complex):
        return f"{kind}({_literal(float(value.real))}, {_literal(float(value.imag))})"
    x = float(value)
    text = repr(x) if math.isfinite(x) else f"_from_bits({struct.unpack('<Q', struct.pack('<d', x))[0]:#x})"
    return text if kind == "float" else f"{kind}({text})"


# the names generated code reads besides its own: the functions of the language, a lane's division
# fallback and power, and what its literals are built from
_HELPERS = {f"_{name}": fn for name, fn in FUNCTIONS.items()}
_HELPERS.update(
    _divide=_divide, _power=power, _from_bits=_from_bits, float64=np.float64, complex128=np.complex128,
    _empty=np.empty,
)


@lru_cache(maxsize=1024)
def generated(source, filename, **names):
    """The namespace of ``source`` run as a module: compiled once per process for one source text.

    The module reads ``_HELPERS`` and ``names``; the text holds everything
    else, its literals included (:func:`_literal`), so that equal texts are
    equal functions.
    """
    namespace = {**_HELPERS, **names}
    exec(compile(source, filename, "exec"), namespace)
    return namespace


def formula_function(text, *names):
    """The function of ``names`` that returns ``text``, each ``{name}`` in it read as that argument (:func:`generated`)."""
    source = f"def _formula({', '.join(names)}):\n    return {text.format_map({name: name for name in names})}"
    return generated(source, f"<{text}>")["_formula"]


# a / b with numpy's bits on Python numbers, written once: quotient is this text, and a complex-layout
# lane writes it inline.  A Python complex divisor, or a Python float one of a Python complex, takes
# numpy's complex Smith form (CPython's complex / rounds differently), two Python floats Python's /,
# and numpy divides (_divide) where those raise, as on a zero divisor, and for every other type.  A
# real-layout lane writes _REAL_QUOTIENT, the branch _QUOTIENT takes on two floats, with no type test
_QUOTIENT = """\
try:
    if type({b}) is complex or type({b}) is float and type({a}) is complex:
        _ar = {a}.real
        _ai = {a}.imag
        _br = {b}.real
        _bi = {b}.imag
        if abs(_br) >= abs(_bi):
            _rat = _bi / _br
            _scl = 1.0 / (_br + _bi * _rat)
            {out} = complex((_ar + _ai * _rat) * _scl, (_ai - _ar * _rat) * _scl)
        else:
            _rat = _br / _bi
            _scl = 1.0 / (_bi + _br * _rat)
            {out} = complex((_ar * _rat + _ai) * _scl, (_ai * _rat - _ar) * _scl)
    elif type({a}) is float and type({b}) is float:
        {out} = {a} / {b}
    else:
        {out} = _divide({a}, {b})
except ZeroDivisionError:
    {out} = _divide({a}, {b})"""
_REAL_QUOTIENT = """\
try:
    {out} = {a} / {b}
except ZeroDivisionError:
    {out} = _divide({a}, {b})"""

quotient = generated(
    f"def quotient(a, b):\n{indent(_QUOTIENT.format(out='q', a='a', b='b'), '    ')}\n    return q", "<quotient>"
)["quotient"]
quotient.__doc__ = """a / b with numpy's bits, on Python numbers too: ``_QUOTIENT`` as a function."""


class Lane(tuple):
    """A value at one point as source text that generated code writes inline (the lane of :mod:`phhs.flows`).

    ``lines`` are statements that read the point's components as ``_p0``,
    ``_p1``, ... and ``results`` an expression per component of the value;
    ``constants`` are the module-level lines that bind the other names they
    read (literals, imports), and ``args`` the names of the values the caller
    passes in: coefficients, and functions that a line calls.  A line may
    raise: that is the value's error at that point.  A tuple of these
    texts, so that equal lanes are one cache key.  A lane travels as the
    pair of it and the values of its ``args``.
    """

    __slots__ = ()

    def __new__(cls, constants, lines, results, args=()):
        return super().__new__(cls, (constants, lines, results, args))

    constants, lines, results, args = (property(operator.itemgetter(i)) for i in range(4))


@lru_cache(maxsize=256)
def _point_function(lane):
    """``_point(p, *args)``: ``lane`` written out as a function of one point and its args."""
    reads = sorted({int(j) for j in re.findall(r"\b_p(\d+)\b", "\n".join([*lane.lines, *lane.results]))})
    source = [
        *lane.constants,
        f"def _point(_p{''.join(f', {a}' for a in lane.args)}):",
        *(f"    _p{j} = _p[{j}]" for j in reads),
        indent("\n".join(lane.lines), "    "),
        f"    return ({''.join(f'{r}, ' for r in lane.results)})",
    ]
    return generated("\n".join(source), "<lane>")["_point"]


def lane_function(lane, values=()):
    """The function of one point, a tuple of Python numbers, that ``lane`` writes out with its args ``values``."""
    # values are bound outside the cache, whose key would take -0.0 for the equal 0.0
    point = _point_function(lane)
    return (lambda q: point(q, *values)) if values else point


def literal_lane(*values):
    """The lane of the numbers ``values``, no args: each distinct literal bound once as :func:`_literal` writes it."""
    literals = {text: f"_c{k}" for k, text in enumerate(dict.fromkeys(map(_literal, values)))}
    return Lane(tuple(f"{name} = {text}" for text, name in literals.items()), (), tuple(literals[_literal(v)] for v in values)), ()


def _renamed(lane, prefix):
    """``lane`` with its locals ``_t<k>`` and literals ``_c<k>`` renamed ``<prefix>t<k>`` and ``<prefix>c<k>``."""
    def rename(texts):
        return tuple(re.sub(r"\b_([tc]\d+)\b", rf"{prefix}\1", t) for t in texts)

    return Lane(rename(lane.constants), rename(lane.lines), rename(lane.results), lane.args)


@lru_cache(maxsize=256)
def _mapped(formula, args, **lanes):
    """The Lane of ``formula`` over ``lanes``, their locals renamed apart: one per field source, which paths share."""
    parts = [_renamed(lane, f"_{key}") for key, lane in lanes.items()]
    return Lane(
        sum((part.constants for part in parts), ()),
        sum((part.lines for part in parts), ()),
        tuple(formula.format_map(dict(zip(lanes, rs))) for rs in zip(*(part.results for part in parts))),
        sum((part.args for part in parts), args),
    )


def lane_map(formula, coefficients, **lanes):
    """The lane whose component j is ``formula`` of component j of each of ``lanes``.

    ``formula`` names each lane of ``lanes`` by its keyword, as ``{v}``,
    and reads the ``coefficients`` (name -> value) by name; a lane here is
    the pair of a :class:`Lane` and the values of its args, and so is the
    one returned.
    """
    mapped = _mapped(formula, tuple(coefficients), **{key: body for key, (body, _) in lanes.items()})
    return mapped, sum((args for _, args in lanes.values()), tuple(coefficients.values()))


_Token = namedtuple("_Token", "kind text pos")


def _tokenize(src):
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (src[j].isdigit() or (src[j] == "." and not seen_dot)):
                seen_dot = seen_dot or src[j] == "."
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            tokens.append(_Token("number", src[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("ident", src[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i, {"number", "identifier", "operator"})
    tokens.append(_Token("end", "", n))
    return tokens


# AST nodes are plain tuples: ("num", v) | ("var", name) | ("neg", e)
# | ("bin", op, l, r) | ("call", fname, e)


class _Parser:
    def __init__(self, src):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    @property
    def cur(self):
        return self.tokens[self.i]

    def advance(self):
        self.i += 1

    def expect(self, kind):
        if self.cur.kind != kind:
            raise ParseError(f"unexpected {self.cur.kind}", self.cur.pos, {kind})
        tok = self.cur
        self.advance()
        return tok

    def parse(self):
        e = self.expr()
        if self.cur.kind != "end":
            raise ParseError("trailing input", self.cur.pos, {"+", "-", "*", "/", "^", "end"})
        return e

    def expr(self):
        e = self.term()
        while self.cur.kind in ("+", "-"):
            op = self.cur.kind
            self.advance()
            e = ("bin", op, e, self.term())
        return e

    def term(self):
        e = self.factor()
        while self.cur.kind in ("*", "/"):
            op = self.cur.kind
            self.advance()
            e = ("bin", op, e, self.factor())
        return e

    def factor(self):
        if self.cur.kind == "-":
            self.advance()
            return ("neg", self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        if self.cur.kind == "^":
            self.advance()
            return ("bin", "^", base, self.factor())
        return base

    def atom(self):
        tok = self.cur
        if tok.kind == "number":
            self.advance()
            return ("num", float(tok.text))
        if tok.kind == "ident":
            self.advance()
            if tok.text in FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return ("call", tok.text, arg)
            if self.cur.kind == "(":
                raise ParseError(f"unknown function {tok.text!r}", tok.pos, set(FUNCTIONS))
            return ("var", tok.text)
        if tok.kind == "(":
            self.advance()
            e = self.expr()
            self.expect(")")
            return e
        raise ParseError(
            f"unexpected {tok.kind}", tok.pos, {"number", "identifier", "function", "("}
        )


def _power_of_two(node):
    """Whether ``node`` is a number c = ±2^k whose square is a normal float.

    A product by such a c and a quotient by c or c^2 are exact short of overflow and underflow, so
    u'/c is the quotient rule's (u' c)/c^2 and (c u)/c is u; for any other c they round differently.
    """
    mantissa, exponent = math.frexp(node[1]) if node[0] == "num" else (0.0, 0)
    return abs(mantissa) == 0.5 and -510 <= exponent <= 512  # c = 2^(exponent - 1), c^2 normal


def _diff(node, var):
    kind = node[0]
    if kind == "num":
        return ("num", 0.0)
    if kind == "var":
        return ("num", 1.0 if node[1] == var else 0.0)
    if kind == "neg":
        return ("neg", _diff(node[1], var))
    if kind == "call":
        fname, arg = node[1], node[2]
        da = _diff(arg, var)
        if fname == "exp":
            return ("bin", "*", node, da)
        if fname == "sin":
            return ("bin", "*", ("call", "cos", arg), da)
        if fname == "cos":
            return ("neg", ("bin", "*", ("call", "sin", arg), da))
        if fname == "sqrt":
            return ("bin", "/", da, ("bin", "*", ("num", 2.0), node))
        raise ValueError(f"{fname} has no symbolic derivative")
    op, l, r = node[1], node[2], node[3]
    dl = _diff(l, var)
    dr = _diff(r, var)
    if op == "+":
        return ("bin", "+", dl, dr)
    if op == "-":
        return ("bin", "-", dl, dr)
    if op == "*":
        return ("bin", "+", ("bin", "*", dl, r), ("bin", "*", l, dr))
    if op == "/":
        if _power_of_two(r):
            return ("bin", "/", dl, r)
        num = ("bin", "-", ("bin", "*", dl, r), ("bin", "*", l, dr))
        return ("bin", "/", num, ("bin", "*", r, r))
    # d(l^r) with constant exponent r: r * l^(r-1) * dl; general case via log.
    if r[0] == "num":
        return (
            "bin",
            "*",
            ("bin", "*", r, ("bin", "^", l, ("num", r[1] - 1.0))),
            dl,
        )
    raise ValueError("power with a non-constant exponent has no symbolic derivative here")


def _simplify(node):
    kind = node[0]
    if kind in ("num", "var"):
        return node
    if kind == "neg":
        inner = _simplify(node[1])
        if inner[0] == "num":
            return ("num", -inner[1])
        return ("neg", inner)
    if kind == "call":
        arg = _simplify(node[2])
        if arg[0] == "num":
            return ("num", float(FUNCTIONS[node[1]](arg[1])))
        return ("call", node[1], arg)
    op, l, r = node[1], _simplify(node[2]), _simplify(node[3])
    if l[0] == "num" and r[0] == "num":
        return ("num", BINARY[op][1](l[1], r[1]))
    if op == "*":
        if (l[0] == "num" and l[1] == 0.0) or (r[0] == "num" and r[1] == 0.0):
            return ("num", 0.0)
        if l[0] == "num" and l[1] == 1.0:
            return r
        if r[0] == "num" and r[1] == 1.0:
            return l
    if op == "+":
        if l[0] == "num" and l[1] == 0.0:
            return r
        if r[0] == "num" and r[1] == 0.0:
            return l
    if op == "-" and r[0] == "num" and r[1] == 0.0:
        return l
    if op == "/" and _power_of_two(r) and l[:3] == ("bin", "*", r):  # (c u)/c is u
        return l[3]
    if op == "^" and r[0] == "num" and r[1] == 1.0:
        return l
    return ("bin", op, l, r)


def _variables(node):
    if node[0] == "var":
        return {node[1]}
    return set().union(*(_variables(child) for child in node[1:] if isinstance(child, tuple)))


def _compile(roots, binding, label, dtype=None):
    """Straight-line Python function ``_p -> value``, one local per AST node.

    Nodes are emitted left operand first and literals are module-level
    names written as :func:`_literal` gives them: the tree's operations,
    one for one, but each distinct one once (equal subtrees share a local;
    literals are told apart by type and bits, so ``0.0`` and ``-0.0`` stay
    two, and a negated literal is one).  The text is compiled once per
    process (:func:`generated`).  A coordinate read or a function call
    gives a numpy scalar at a point.

    Without a ``dtype``, ``roots`` is one tree and the function returns its
    value; with one, ``roots`` are the trees of a value's components of
    that dtype (complex or float): the function takes a point or an
    ``(N, dim)`` stack and returns ``(..., len(roots))`` components.

    The ``lane`` attribute is the function's single-point form, a
    :class:`Lane` and no args: the same operations on the point's
    components as Python numbers ``_p0``, ``_p1``, ..., one result per
    component, with numpy's bits.  Each quotient is written out, as
    ``_QUOTIENT`` (as :func:`quotient`), or as ``_REAL_QUOTIENT``
    (Python's ``/``) on floats; a power of a Python complex is
    :func:`power` (written out as a a and a (a a), 0 at a zero base, for
    the literal powers 2 and 3), and any other power Python's ``**`` where
    that gives a float (the C library's ``pow``, as numpy's) and
    :func:`power` where it raises or does not.  A function call's value
    stays a numpy scalar, except on floats, where it is read as a Python
    float, so that a real lane keeps Python floats.
    """
    lines, points, scalars, locals_, literals = [], [], set(), {}, {}
    form = _REAL_QUOTIENT if dtype is float else _QUOTIENT

    def scalar(local):
        scalars.add(local)
        return local

    def emit(src, point_src=None):
        if src not in locals_:
            locals_[src] = f"_t{len(lines)}"
            lines.append(f"{locals_[src]} = {src}")
            points.append(f"{locals_[src]} = {point_src or src}")
        return locals_[src]

    def visit(node):
        kind, arg = node[0], node[1]
        if kind == "num":
            return literals.setdefault(_literal(arg), f"_c{len(literals)}")
        if kind == "var":
            if arg not in binding:
                raise ValueError(f"unknown identifier {arg!r}")
            c = binding[arg]
            src = f"_p[{c[0]!r}] + 1j * _p[{c[1]!r}]" if isinstance(c, tuple) else f"_p[{c!r}]"
            return scalar(emit(src, f"_p{c[0]} + 1j * _p{c[1]}" if isinstance(c, tuple) else f"_p{c}"))
        if kind == "neg":
            if arg[0] == "num":  # negation is exact: the negated literal
                return visit(("num", -arg[1]))
            a = visit(arg)
            out = emit(f"-{a}")
            return scalar(out) if a in scalars else out
        if kind == "call":
            src = f"_{arg}({visit(node[2])})"
            return scalar(emit(src, f"float({src})" if dtype is float else None))
        a, b = visit(node[2]), visit(node[3])
        src = f"{a} {BINARY[arg][0]} {b}"
        if not {a, b} & scalars:
            return emit(src)
        local = scalar(emit(src))
        k = int(local[2:])  # the line that made _t<k>
        if arg == "/":
            points[k] = form.format(out=local, a=a, b=b)
        elif arg == "^":
            product = {("num", 2.0): f"{a} * {a}", ("num", 3.0): f"{a} * ({a} * {a})"}.get(node[3])
            points[k] = "\n".join([
                f"if type({a}) is complex:",
                f"    {local} = {product} if {a} else 0j" if product else f"    {local} = _power({a}, {b})",
                "else:",
                "    try:",
                f"        {local} = {src}",
                f"        if type({local}) is not float:",
                f"            {local} = _power({a}, {b})",
                "    except ArithmeticError:",
                f"        {local} = _power({a}, {b})",
            ])
        return local

    def body(entries):
        return indent("\n".join(entries), "    ") if entries else "    pass"

    results = [visit(roots)] if dtype is None else [visit(root) for root in roots]
    constants = tuple(f"{local} = {text}" for text, local in literals.items())
    if dtype is None:
        source = [*constants, "def _fn(_p):", body(lines), f"    return {results[0]}"]
    else:
        source = [*constants, "def _fn(_z):", "    _p = _z if _z.ndim == 1 else _z.T", body(lines)]
        source.append(f"    _o = _empty((*_z.shape[:-1], {len(results)}), {dtype.__name__})")
        source += [*(f"    _o[..., {k}] = {r}" for k, r in enumerate(results)), "    return _o"]
    # the lane reads a coordinate where the array path copies it to a local
    copies = dict(match.groups() for match in (re.fullmatch(r"(_t\d+) = (_p\d+)", line) for line in points) if match)

    def read(text):
        return re.sub(r"\b_t\d+\b", lambda local: copies.get(local[0], local[0]), text)

    points = tuple(read(line) for line in points if line.partition(" = ")[0] not in copies)
    lane = Lane(constants, points, tuple(read(result) for result in results))
    fn = generated("\n".join(source), f"<expression {label!r}>")["_fn"]
    fn.lane = lane, ()
    return fn


@lru_cache(maxsize=1024)
def _compiled(tree, binding, label, dtype=None):
    """:func:`_compile` of the marshalled trees ``tree`` and the items ``binding`` of a name table, once per process.

    So a second build of the same text walks no tree.  marshal writes each
    number leaf's bits: 0.0 and -0.0, equal as tuple leaves, are two keys.
    """
    return _compile(marshal.loads(tree), dict(binding), label, dtype)


class Expression:
    """A parsed expression: compilable, differentiable, hashable by source."""

    def __init__(self, ast, source=""):
        self.ast = ast
        self.source = source

    def compile(self, binding):
        """Function of one vector ``p``; ``binding`` maps identifier -> coordinate.

        A coordinate is an index of ``p`` or, for a complex name over a real
        vector, the index pair (a, b) read as ``p[a] + 1j * p[b]``; the
        function's ``lane`` reads index k as ``_p<k>``.  Raises ValueError
        for an identifier the binding lacks.
        """
        return _compiled(marshal.dumps(self.ast, 2), tuple(binding.items()), self.source)

    def constant(self):
        """Value of an expression without identifiers: a folded ``("num", v)`` leaf is v, any other tree compiles."""
        kind, value = self.ast[:2]
        return value if kind == "num" else self.compile({})(None)

    def evaluate(self, env):
        """Value for the name -> value mapping ``env``, compiled for this call."""
        return self.compile({name: k for k, name in enumerate(env)})(list(env.values()))

    def diff(self, var):
        return Expression(_simplify(_diff(self.ast, var)), f"d({self.source})/d{var}")

    def variables(self):
        return _variables(self.ast)

    def __add__(self, other):
        return _binary("+", self, other)

    def __mul__(self, other):
        return _binary("*", self, other)

    def __rtruediv__(self, other):
        return _binary("/", other, self)

    def __neg__(self):
        return Expression(("neg", self.ast), f"-({self.source})")

    def __repr__(self):
        return f"Expression({self.source!r})"


def _binary(op, a, b):
    """The Expression ``a op b`` (+, * or /) of Expressions or numbers; two numbers fold into numpy's value."""
    a, b = (x if isinstance(x, Expression) else Expression(("num", float(x)), repr(float(x))) for x in (a, b))
    source, (x, y) = f"({a.source}){op}({b.source})", (a.ast, b.ast)
    if x[0] == y[0] == "num":
        return Expression(("num", quotient(x[1], y[1]) if op == "/" else BINARY[op][1](x[1], y[1])), source)
    return Expression(("bin", op, x, y), source)


def parse_expression(src):
    """Parse source text into an :class:`Expression`; raises ParseError."""
    return Expression(_Parser(src).parse(), src)


def compile_points(expr, names, cast=None):
    """Values of ``expr`` (text or parsed) at a point (a scalar) or at the rows of an ``(N, dim)`` stack.

    ``names`` is the binding of :meth:`Expression.compile`.  A constant is
    evaluated once, when the function is built, passed through ``cast`` and
    broadcast to the input's rows, and its ``lane`` is that number
    (:func:`literal_lane`); any other expression's function carries the
    compiled ``lane``, its value at one point of Python numbers with the
    bits the function gives that point's array.
    """
    if isinstance(expr, str):
        expr = parse_expression(expr)
    if expr.variables():
        value = expr.compile(names)

        def points(p):
            # a point is read as it is: p.T would cost a view per call
            return value(p) if p.ndim == 1 else value(p.T)

        points.lane = value.lane
        return points
    c = expr.constant()
    c = c if cast is None else cast(c)

    def constant(p):
        return c if p.ndim == 1 else np.full(p.shape[:-1], c)

    constant.lane = literal_lane(c)
    return constant


def _complex_leaves(node):
    return ("num", complex(node[1])) if node[0] == "num" else tuple(
        _complex_leaves(c) if isinstance(c, tuple) else c for c in node
    )


def compile_vector(exprs, names, dtype=complex):
    """The components ``exprs`` (text or parsed) of ``dtype`` as one function, one compile.

    It takes a point or an ``(N, dim)`` stack (``names`` as in
    :meth:`Expression.compile`) and returns ``(..., len(exprs))`` components;
    its ``lane`` gives them at a point of Python numbers, with the same bits,
    as a :class:`Lane` and no args.  ``complex`` is the complex layout, each
    component as :func:`compile_points` with a complex cast gives it; a
    constant is evaluated on complex literals: ``-0`` is ``-(0j)``.
    ``float`` is the real layout of real-valued trees: the lane's results
    are Python floats.  Where every component is a folded number nothing
    compiles: the function fills its rows with those numbers, and its lane
    is theirs (:func:`literal_lane`), as ``_compile`` binds its literals.
    """
    exprs = [parse_expression(e) if isinstance(e, str) else e for e in exprs]
    roots = [_complex_leaves(e.ast) if dtype is complex and not e.variables() else e.ast for e in exprs]
    if any(root[0] != "num" for root in roots):
        label = f"({', '.join(e.source for e in exprs)})"
        return _compiled(marshal.dumps(roots, 2), tuple(names.items()), label, dtype)
    values = tuple(root[1] for root in roots)
    row = np.array(values, dtype)

    def fn(z):
        out = np.empty((*z.shape[:-1], row.size), dtype)
        out[...] = row
        return out

    fn.lane = literal_lane(*values)
    return fn
