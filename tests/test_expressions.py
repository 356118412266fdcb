import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phhs import models
from phhs.errors import NonFiniteStateError, ParseError
from phhs.expressions import Lane, compile_points, compile_vector, lane_function, parse_expression, power, quotient
from phhs.util import coordinate_names, seeded_points, to_complex

from conftest import array_states, scalar_lane


def test_basic_arithmetic_and_functions():
    assert parse_expression("exp(x1)").evaluate({"x1": 0.0}) == pytest.approx(1.0)
    assert parse_expression("1 + 0.25*exp(x1)").evaluate({"x1": 0.0}) == pytest.approx(1.25)
    assert parse_expression("sqrt(4) + sin(0) * cos(0)").evaluate({}) == pytest.approx(2.0)


def test_power_is_right_associative():
    assert parse_expression("2^3^2").evaluate({}) == pytest.approx(512.0)


def test_precedence():
    assert parse_expression("2 + 3 * 4").evaluate({}) == pytest.approx(14.0)
    assert parse_expression("-2^2").evaluate({}) == pytest.approx(-4.0)
    assert parse_expression("2^-1").evaluate({}) == pytest.approx(0.5)
    assert parse_expression("(2 + 3) * 4").evaluate({}) == pytest.approx(20.0)
    assert parse_expression("6 / 3 / 2").evaluate({}) == pytest.approx(1.0)
    assert parse_expression("1 - 2 - 3").evaluate({}) == pytest.approx(-4.0)


def test_numbers_with_exponents():
    assert parse_expression("1.5e2").evaluate({}) == pytest.approx(150.0)
    assert parse_expression("2.5E-3").evaluate({}) == pytest.approx(0.0025)


def test_complex_environment_evaluation():
    e = parse_expression("P1^2/2 - 1/(8*Q1^2)")
    val = e.evaluate({"Q1": 1.0 + 0.0j, "P1": 0.5 + 0.0j})
    assert abs(val) < 1e-14


def test_parse_error_offsets_are_exact():
    with pytest.raises(ParseError) as err:
        parse_expression("1 + * 2")
    assert err.value.pos == 4
    with pytest.raises(ParseError) as err:
        parse_expression("exp(x1")
    assert err.value.pos == 6
    with pytest.raises(ParseError) as err:
        parse_expression("2 ** 3")
    assert err.value.pos == 3
    with pytest.raises(ParseError) as err:
        parse_expression("x1 $ 2")
    assert err.value.pos == 3
    with pytest.raises(ParseError) as err:
        parse_expression("foo(3)")
    assert err.value.pos == 0


def test_trailing_input_rejected():
    with pytest.raises(ParseError) as err:
        parse_expression("1 2")
    assert err.value.pos == 2


def test_unknown_identifier_at_evaluation():
    e = parse_expression("qq + 1")
    with pytest.raises(ValueError):
        e.evaluate({"x1": 0.0})


def test_symbolic_derivatives():
    e = parse_expression("exp(2*x1) + sin(x1)*x2 - x1^3")
    d = e.diff("x1")
    env = {"x1": 0.4, "x2": -1.2}
    fd = (e.evaluate({**env, "x1": 0.4 + 1e-7}) - e.evaluate({**env, "x1": 0.4 - 1e-7})) / 2e-7
    assert d.evaluate(env) == pytest.approx(fd, rel=1e-6)
    assert e.diff("x3").evaluate(env) == pytest.approx(0.0)


def test_derivative_of_quotient_and_sqrt():
    e = parse_expression("sqrt(x1) / (1 + x1)")
    env = {"x1": 0.7}
    fd = (e.evaluate({"x1": 0.7 + 1e-7}) - e.evaluate({"x1": 0.7 - 1e-7})) / 2e-7
    assert e.diff("x1").evaluate(env) == pytest.approx(fd, rel=1e-6)


# random trees over x1 and x2: sums, products, quotients by numbers (powers of two and others)
# and by expressions that do not vanish, integer and fractional powers, and the functions
_DIVISORS = ["2", "4", "0.5", "-8", "7", "0.1", "-3"]
_LEAVES = st.sampled_from(["x1", "x2", "2", "3", "0.5", "7"])


def _extend(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*"), children).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(children, st.sampled_from(_DIVISORS)).map(lambda t: f"({t[0]})/{t[1]}"),
        st.tuples(children, children).map(lambda t: f"({t[0]})/(1 + ({t[1]})^2)"),
        st.tuples(children, st.sampled_from(["2", "3"])).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(children, st.sampled_from(["0.5", "1.5"])).map(lambda t: f"(1 + ({t[0]})^2)^{t[1]}"),
        st.tuples(st.sampled_from(["exp", "sin", "cos"]), children).map(lambda t: f"{t[0]}({t[1]})"),
        children.map(lambda c: f"sqrt(1 + ({c})^2)"),
        children.map(lambda c: f"-({c})"),
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=st.recursive(_LEAVES, _extend, max_leaves=6), var=st.sampled_from(["x1", "x2"]),
       point=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)))
def test_derivatives_are_sympys(text, var, point):
    # Expression.diff, simplified, against sympy's derivative of the same text, both evaluated
    # at the point (sympy to 30 digits)
    sympy = pytest.importorskip("sympy")
    x1, x2 = sympy.symbols("x1 x2")
    env = dict(zip(("x1", "x2"), point))
    reference = sympy.diff(sympy.sympify(text.replace("^", "**")), {"x1": x1, "x2": x2}[var])
    want = complex(reference.evalf(30, subs={x1: point[0], x2: point[1]}))
    with np.errstate(all="ignore"):
        got = complex(parse_expression(text).diff(var).evaluate(env))
    if not (np.isfinite(want) and abs(want) < 1e12):
        return
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (text, var, point, got, want)


def test_the_oscillators_x_is_one_operation_or_two_per_component():
    # X = (dH/dP1, -dH/dQ1) of H = (P1^2 + Q1^2)/2: d(u/2) is u'/2 and (2 P1)/2 folds to P1, the
    # alias partials that folded to 0.0 are not summed, so X reads P1 and negates Q1
    lane, args = models.build_standard_hhs(1, "(P1^2 + Q1^2)/2").X_hook.lane
    assert (lane.constants, lane.lines, lane.results, args) == ((), ("_t2 = -_p0",), ("_p1", "_t2"), ())


def test_a_divisor_that_is_no_power_of_two_keeps_the_quotient_rule():
    # for c = 7, u'/7 and the quotient rule's (u' 7)/49 round differently (they differ at 239 of
    # 1,000 values of u' = 3 Q1^2), and model_values.json pins the bits of X of text such as
    # Q1^3/7; only a power of two c, for which both are exact, takes u'/c
    u = 3.0 * np.linspace(0.1, 2.0, 1000) ** 2
    assert ((u * 7.0) / 49.0 != u / 7.0).sum() == 239
    d = parse_expression("Q1^3/7").diff("Q1")
    partial = ("bin", "*", ("num", 3.0), ("bin", "^", ("var", "Q1"), ("num", 2.0)))
    assert d.ast == ("bin", "/", ("bin", "*", partial, ("num", 7.0)), ("num", 49.0))
    assert parse_expression("Q1^3/4").diff("Q1").ast == ("bin", "/", partial, ("num", 4.0))


def test_conj_evaluates_but_has_no_derivative():
    e = parse_expression("conj(Q1)")
    assert e.evaluate({"Q1": 1.0 + 2.0j}) == 1.0 - 2.0j
    with pytest.raises(ValueError):
        e.diff("Q1")


def test_variables_listing():
    assert parse_expression("x1*exp(y2) - 3").variables() == {"x1", "y2"}


def test_vectorized_evaluation():
    e = parse_expression("x1^2 + 1")
    out = e.evaluate({"x1": np.array([1.0, 2.0, 3.0])})
    assert np.allclose(out, [2.0, 5.0, 10.0])


def test_compiled_function_matches_evaluate():
    e = parse_expression("exp(2*x1) + sin(x1)*y2 - x1^3 / (1 + y1^2)")
    p = np.array([0.4, -1.2, 0.3, 0.8])
    fn = e.compile(coordinate_names(2))
    env = {"x1": p[0], "x2": p[1], "y1": p[2], "y2": p[3]}
    assert fn(p) == e.evaluate(env)


def test_unknown_identifier_fails_at_compile_time():
    e = parse_expression("x1 + q1")
    with pytest.raises(ValueError, match="unknown identifier 'q1'"):
        e.compile(coordinate_names(2))
    # the morse conformal factor is bound to x1, y1 only
    with pytest.raises(ValueError, match="unknown identifier 'z1'"):
        parse_expression("z1").compile(coordinate_names(1, aliases=False))


def test_long_expressions_compile_without_nesting_limits():
    # straight-line code: one local per node, no nested parentheses
    e = parse_expression(" + ".join(["x1"] * 500))
    assert e.compile({"x1": 0})([0.5]) == pytest.approx(250.0)


def test_literals_are_bound_by_value():
    # 1e400 overflows to inf, which has no Python literal spelling
    assert parse_expression("1e400 - x1").compile({"x1": 0})([1.0]) == np.inf


def test_name_tables_of_the_three_layouts():
    assert coordinate_names(1, aliases=False) == {"x1": 0, "y1": 1}
    assert coordinate_names(1) == {"x1": 0, "y1": 1, "z1": (0, 1)}
    assert coordinate_names(2, "complex") == {"z1": 0, "z2": 1, "Q1": 0, "P1": 1}
    assert coordinate_names(2, "complex", aliases=False) == {"z1": 0, "z2": 1}
    assert coordinate_names(3, "base") == {"x1": 0, "x2": 1, "x3": 2}


_finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3]).flatmap(lambda m: st.lists(_finite, min_size=2 * m, max_size=2 * m)))
def test_name_table_binds_every_coordinate(coords):
    p = np.array(coords)
    m = p.size // 2
    z = to_complex(p)
    n = m // 2

    def value(name, layout, vec):
        return parse_expression(name).compile(coordinate_names(m, layout))(vec)

    for j in range(m):
        assert value(f"x{j + 1}", "real", p) == p[j]
        assert value(f"y{j + 1}", "real", p) == p[m + j]
        assert value(f"z{j + 1}", "real", p) == z[j]
        assert value(f"z{j + 1}", "complex", z) == z[j]
        assert value(f"x{j + 1}", "base", p[:m]) == p[j]
    if 2 * n != m:
        assert not any(k[0] in "QP" for k in coordinate_names(m))
        return
    for j in range(n):
        for layout, vec in (("real", p), ("complex", z)):
            assert value(f"Q{j + 1}", layout, vec) == z[j]
            assert value(f"P{j + 1}", layout, vec) == z[n + j]


# ---------------------------------------------------------------------------
# the point path, a compiled text's Lane: one point as Python numbers, with numpy's scalar bits
# ---------------------------------------------------------------------------


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


SPECIAL = [0.0, -0.0, 1.0, -2.5, 3.0, 1e-310, 1e200, -1e200, np.inf, -np.inf, np.nan]


def _numbers(seed, count):
    rng = np.random.default_rng(seed)
    floats = (rng.standard_normal(count) * 10.0 ** rng.integers(-3, 4, count)).tolist()
    return floats + SPECIAL


def test_quotient_is_numpys_division_on_python_numbers():
    # CPython divides a complex number by the scaled denominator, numpy multiplies by its
    # reciprocal: they differ on thousands of random z / 3; quotient does not differ at all
    rng = np.random.default_rng(11)
    Z = (rng.standard_normal(20000) + 1j * rng.standard_normal(20000)).tolist()
    assert sum(z / 3.0 != complex(np.complex128(z) / 3.0) for z in Z) > 5000
    assert all(_same_bits(quotient(z, 3.0), np.complex128(z) / 3.0) for z in Z)
    numbers = _numbers(12, 40)
    pairs = [complex(a, b) for a in numbers[::3] for b in numbers[1::3]]
    with np.errstate(all="ignore"):
        for a in numbers + pairs[:200]:
            for b in numbers[::2] + pairs[::7]:
                ref = (np.complex128 if isinstance(a, complex) or isinstance(b, complex) else np.float64)(a)
                assert _same_bits(quotient(a, b), ref / b), (a, b)


def test_the_inline_quotient_is_quotient_and_falls_back_to_it_on_zero_and_nan_divisors():
    # the point path writes quotient's complex Smith form and its division of two floats inline;
    # where they raise ZeroDivisionError (a zero divisor, or a NaN one: Python's NaN / 0.0 raises)
    # it calls quotient, so every pair keeps quotient's bits, which are the array path's.  A NaN
    # keeps its place, not always its sign: which operand's NaN an operation returns differs
    # between numpy's loops and CPython's float operations (nan j / (inf + inf j) is one case)
    def same(a, b):
        a, b = np.asarray(a), np.asarray(b)
        nan = np.isnan(a.reshape(-1).view(float))
        return a.dtype == b.dtype and np.array_equal(nan, np.isnan(b.reshape(-1).view(float))) and (
            a.reshape(-1).view(float)[~nan].tobytes() == b.reshape(-1).view(float)[~nan].tobytes()
        )

    complex_fn = compile_vector(["z1/z2"], coordinate_names(2, "complex"))
    real_fn = compile_vector(["x1/x2"], coordinate_names(2), float)
    mixed_fn = compile_points("z1/x2", coordinate_names(2))  # a complex by a float
    complex_point, real_point = (lane_function(*fn.lane) for fn in (complex_fn, real_fn))
    mixed_point = scalar_lane(mixed_fn)
    parts = [complex(a, b) for a in SPECIAL for b in SPECIAL[::2]]
    zero_or_nan = 0
    with np.errstate(all="ignore"):
        for a in parts:
            for b in parts:
                (q,) = complex_point((a, b))
                assert same(q, quotient(a, b)) and same(q, complex_fn(np.array([a, b]))[0]), (a, b)
                zero_or_nan += not b or b != b
        for a in SPECIAL:
            for b in SPECIAL:
                (q,) = real_point((a, b, 0.5, 0.5))
                assert type(q) is float and same(q, quotient(a, b)), (a, b)
                assert same(q, real_fn(np.array([a, b, 0.5, 0.5]))[0]), (a, b)
                p = (a, b, -0.75, 0.0)
                q = mixed_point(p)
                assert same(q, quotient(complex(a, -0.75), b)) and same(q, mixed_fn(np.array(p))), (a, b)
    assert zero_or_nan > 500


def test_the_real_layout_quotient_is_the_array_quotient_at_special_divisors():
    # on the real layout the lane writes Python's / and numpy's division where it raises, with no
    # type test: the point path and the stepped lane give the array function's bits at signed
    # zero, subnormal, infinite and NaN divisors (a NaN keeps its place, as above), and the point
    # path gives the same bits, with the same warnings, on int and numpy float64 coordinates,
    # where an int zero divisor raised ZeroDivisionError before
    import itertools
    import warnings

    from phhs import flows
    from phhs.fields import VectorField

    fn = compile_vector(["x2/x1", "1/(x1 - y1)", "x1 * y2", "y2"], coordinate_names(2), float)
    (lane, _), V = fn.lane, VectorField(fn, name="quotients", lane=fn.lane)
    point = lane_function(lane)
    assert sum("_divide" in line for line in lane.lines) == 2 and "type(" not in "\n".join(lane.lines)
    divisors = [0.0, -0.0, 5e-324, -5e-324, 1e-310, np.inf, -np.inf, np.nan]
    points = [(a, b, c, 0.5) for a, b, c in itertools.product([*divisors, 1.5], [3.0, -0.0, 1e-320, np.nan], [0.0, -0.0, 1.5])]

    def same(a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        nan = np.isnan(a)
        return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()

    def first_step(states):
        try:
            return next(states), None
        except NonFiniteStateError as exc:
            return exc.state, (exc.step, exc.time, exc.row, str(exc))

    outcomes = set()
    with np.errstate(all="ignore"):
        for p in points:
            assert all(type(v) is float for v in point(p)) and same(point(p), fn(np.array(p))), p
            state, error = first_step(flows.rk4_states(V, np.array(p), 0.05))
            array_state, array_error = first_step(array_states(fn, np.array(p), 0.05))
            assert error == array_error and same(state, array_state), p
            outcomes.add(error is None)
    assert outcomes == {True, False}

    def point_and_warnings(p):
        with warnings.catch_warnings(record=True) as caught, np.errstate(all="warn"):
            warnings.simplefilter("always")
            return point(p), sorted(str(w.message) for w in caught)

    for p in [(0, 3, 0, 1), (2, 0, 2, -1), (0, 0, 1, 1), (4, 1, -3, 7)]:
        floats, warned = point_and_warnings(tuple(map(float, p)))
        for q in (p, tuple(map(np.float64, p))):
            value, also_warned = point_and_warnings(q)
            assert np.array(value, dtype=float).tobytes() == np.array(floats).tobytes() and also_warned == warned, q


def test_a_vector_of_folded_numbers_compiles_nothing(monkeypatch):
    # the partials of -y1 and the twisted X made from them are folded numbers: the function
    # fills its rows with them, bit for bit the compiled source, signed zeros kept, and its lane
    # is the compiled source's, whose function gives them as they are
    import builtins

    from phhs import expressions

    grads = [parse_expression("-y1").diff(name) for name in ("x1", "x2", "y1", "y2")]
    values = [g.ast[1] for g in grads] + [-0.0, np.inf]
    trees = [("num", v) for v in values]
    names = coordinate_names(2)
    # the source compile_vector compiled for them before, complex literals on the complex layout
    roots = {float: trees, complex: [("num", complex(v)) for v in values]}
    compiled = {dtype: expressions._compile(roots[dtype], names, "folded", dtype) for dtype in (float, complex)}
    P = np.concatenate([seeded_points(4, 5, 4), [[0.0, -0.0, np.nan, np.inf]]])
    # its lane's function, compiled at its first call
    points = {dtype: lane_function(*compiled[dtype].lane)(tuple(P[0].tolist())) for dtype in (float, complex)}
    monkeypatch.setattr(builtins, "compile", None)
    for dtype in (float, complex):
        fn = expressions.compile_vector([expressions.Expression(t) for t in trees], names, dtype)
        for p in (P, P[0]):
            assert _same_bits(fn(p), compiled[dtype](p)) and fn(p).shape == compiled[dtype](p).shape
        lane, args = fn.lane
        assert lane.lines == () and args == () and len(lane.results) == len(values)
        assert (lane, args) == compiled[dtype].lane
        point = lane_function(lane)(tuple(P[0].tolist()))
        assert _same_bits(np.array(point), np.array(points[dtype]))
    assert values[:4] == [-0.0, -0.0, -1.0, -0.0] and [math.copysign(1.0, v.real) for v in point] == [-1.0] * 5 + [1.0]


def test_point_path_power_is_numpys_power():
    # Python's float ** raises on overflow and on 0 to a negative power, and gives a complex
    # number for a negative base to a fractional power, where numpy gives inf, inf and NaN;
    # its complex power is not numpy's
    with pytest.raises(OverflowError):
        1e200**2.0
    assert isinstance((-8.0) ** (1 / 3), complex)
    real = compile_points("x1^x2", coordinate_names(2))
    complex_ = compile_points("Q1^P1", coordinate_names(2, "complex"))
    real_point, complex_point = scalar_lane(real), scalar_lane(complex_)
    bases = _numbers(13, 40)
    exponents = [2.0, 3.0, 0.5, -1.0, 1 / 3, -2.0, 0.0, 7.5, np.inf, np.nan]
    with np.errstate(all="ignore"):
        for a in bases:
            for b in exponents:
                assert _same_bits(real_point((a, b, 0.0, 0.0)), real(np.array([a, b, 0.0, 0.0]))), (a, b)
        for z in [complex(a, b) for a in bases[::5] for b in bases[1::5]]:
            for b in exponents[:6] + [0.5 + 1j]:
                assert _same_bits(complex_point((z, complex(b))), complex_(np.array([z, b]))), (z, b)
    assert power(2.0, 0.5) == np.float64(2.0) ** 0.5


def test_integer_power_of_a_python_complex_is_numpys_products():
    # numpy's complex power multiplies for an integer exponent below 100 (a a, a (a a), then
    # binary powering onto 1 + 0j; 1 for 0, and 0 at a zero base): power makes the same
    # products on a Python complex and keeps it one
    bases = [complex(a, b) for a in _numbers(14, 10) for b in _numbers(15, 10)]
    with np.errstate(all="ignore"):
        for n in (*range(12), 31, 64, 99):
            for z in bases:
                got = power(z, float(n))
                assert type(got) is complex and _same_bits(got, np.complex128(z) ** float(n)), (z, n)
    assert type(power(1j, 100.0)) is type(power(1j, 2.5)) is np.complex128
    assert type(power(1j, -2.0)) is complex


def test_negative_integer_power_of_a_python_complex_is_numpys_reciprocal():
    # for -100 < n < 0 numpy powers the base |n| times onto 1 + 0j, as for n > 3, and divides
    # 1 + 0j by that product (NaN + NaN j at a zero base): power keeps the bits and a Python
    # complex on the 576 bases, zeros, inf, NaN and 1e200 among them
    numbers = _numbers(13, 13)
    bases = [complex(a, b) for a in numbers for b in numbers]
    assert len(bases) == 576
    with np.errstate(all="ignore"):
        for n in range(-99, 0):
            for z in bases:
                got = power(z, float(n))
                assert type(got) is complex and _same_bits(got, np.complex128(z) ** float(n)), (z, n)
    fn = compile_points("Q1^-2 + P1^(-5)", coordinate_names(2, "complex"))
    point = scalar_lane(fn)
    with np.errstate(all="ignore"):
        for z in [(q, p) for q in bases[::7] for p in bases[::29]]:
            got = point(z)
            assert type(got) is complex and _same_bits(got, fn(np.array(z))), z


def test_point_path_keeps_an_integer_power_of_a_complex_coordinate_python_complex():
    # the literal square and cube are written out, any other integer power goes to power: the
    # point path returns a Python complex with the bits of the function at that point
    fn = compile_points("Q1^3 - P1^2/5 + Q1^4*P1^7 + P1^(1+1)", coordinate_names(2, "complex"))
    point = scalar_lane(fn)
    numbers = [0.0, -0.0, 0.75, -1.5, 1e200, np.inf, np.nan]
    with np.errstate(all="ignore"):
        for z in [(complex(a, b), complex(b, c)) for a in numbers for b in numbers for c in numbers[:4]]:
            got = point(z)
            assert type(got) is complex and _same_bits(got, fn(np.array(z))), z


@pytest.mark.parametrize(
    "text, layout",
    [
        ("P1^2/3 + Q1^2", "complex"),
        ("(P1^2 + Q1^2)/2 + 3/10", "complex"),
        ("1/(Q1 - P1) + Q1^3/7 - exp(Q1)/3", "complex"),
        ("1 + x1^2", "real"),
        ("x1/x2 - y1^0.5 + (x2 - 0.25)^-3", "real"),
        ("z1^2/3 + x2 * z2", "real"),
    ],
)
def test_point_path_equals_the_numpy_scalar_path_bit_for_bit(text, layout):
    # the reference is the function on a point's array, whose entries are numpy scalars; the
    # point path reads the same point as Python numbers, specials and zero divisors included
    m = 2
    names = coordinate_names(m, layout)
    fn = compile_points(text, names)
    point = scalar_lane(fn)
    rng = np.random.default_rng(5)
    P = rng.standard_normal((2000, 2 * m)) * 2.0
    P = np.concatenate([P, np.array([[0.0, -0.0, 0.0, -0.0], [1e200, 0.25, -1e200, 0.5], [-1.0, -0.0, 2.0, 3.0]])])
    if layout == "complex":
        P = to_complex(P)
    with np.errstate(all="ignore"):
        for p in P:
            assert _same_bits(np.asarray(point(tuple(p.tolist()))), np.asarray(fn(p))), p


def test_point_path_is_needed_for_complex_quotients():
    # the array function read on Python complex numbers takes CPython's quotient and power; the
    # Lane writes numpy's quotient out inline (_QUOTIENT's Smith form) and keeps numpy's bits
    fn = parse_expression("P1^2/3 + Q1^2").compile(coordinate_names(2, "complex"))
    Z = to_complex(np.random.default_rng(6).standard_normal((5000, 4)))
    plain = sum(not _same_bits(np.complex128(fn(tuple(z.tolist()))), fn(z)) for z in Z)
    assert plain > 500
    lane, args = fn.lane
    quotients = [line for line in lane.lines if line.startswith("try:")]
    assert args == () and len(quotients) == 1 and "_scl = 1.0 / (_br + _bi * _rat)" in quotients[0]
    point = scalar_lane(fn)
    assert all(_same_bits(np.complex128(point(tuple(z.tolist()))), fn(z)) for z in Z)
    # with no quotient or power of a coordinate the Lane is the array function's operations,
    # each coordinate read as _p<k>
    lane, _ = compile_points("exp(x1) * x2 - 1/4", coordinate_names(2)).lane
    assert lane.lines == ("_t1 = _exp(_p0)", "_t3 = _t1 * _p1", "_t4 = _c0 / _c1", "_t5 = _t3 - _t4")


@pytest.mark.parametrize("text", ["1", "2.5e-300", "-1", "2 * 3 - 1", "(0 - 1)^0.5", "exp(1)"])
def test_a_constant_is_its_compiled_value(text):
    # a folded ("num", v) leaf is read from the tree; any other constant tree compiles
    expr = parse_expression(text)
    for e in (expr, parse_expression(f"x1 * ({text})").diff("x1")):
        c, compiled = e.constant(), e.compile({})(None)
        assert type(c) is type(compiled) and np.array(c).tobytes() == np.array(compiled).tobytes()


def test_a_folded_constant_partial_is_read_without_compiling(monkeypatch):
    import builtins

    d = parse_expression("-y1").diff("y1")
    assert d.ast == ("num", -1.0)
    monkeypatch.setattr(builtins, "compile", None)
    assert d.constant() == -1.0 and compile_points(d, {})(np.empty(0)) == -1.0


def test_lane_function_binds_the_sign_of_a_zero_arg():
    # the function is cached on the lane alone: the arg -0.0, equal to 0.0 and of its hash, is
    # bound as -0.0 after a call with 0.0
    lane = Lane((), (), ("a",), ("a",))
    assert math.copysign(1.0, lane_function(lane, (0.0,))((1.0,))[0]) == 1.0
    assert math.copysign(1.0, lane_function(lane, (-0.0,))((1.0,))[0]) == -1.0
