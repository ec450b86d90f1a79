"""The packed decode-and-sort pass against the tuple order it replaces.

diffring.order_key, and jet_rows, which sorts packed monomials by the same
byte key, must order every monomial as conftest.mono_key orders its tuple
form.  The references here decode each term, make its Fraction and sort
by mono_key, as the renderers did before the pass; every rendered format
must agree with them byte for byte, whether each polynomial gets its own
jet-part table or one table serves polynomials of several widths.  Also
here: a constant polynomial hashes as its value, since it compares equal
to it.
"""

import json
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import mono_key, sorted_terms
from jetsym.cli import _body_json, _latex_var, _text_var, render_latex, render_text
from jetsym.diffring import (
    EXP_VAR,
    KIND_EXP,
    KIND_JET,
    KIND_PAR,
    KIND_T,
    KIND_X,
    T_VAR,
    X_VAR,
    DiffPoly,
    _decode,
    _encode,
    const,
    jet,
    order_key,
    ordered_terms,
    par,
    var_name,
)

_POOL = [T_VAR, X_VAR, jet(0), jet(1), jet(2), jet(9), par(0), par(1), par(5)]


@st.composite
def monomials(draw):
    """A tuple monomial in t, x, z_k, h_j and E^m with m in [-2, 2]."""
    chosen = draw(st.lists(st.sampled_from(_POOL), unique=True, max_size=4))
    mono = sorted((v, draw(st.integers(1, 3))) for v in chosen)
    m = draw(st.integers(-2, 2))
    if m:
        mono.append((EXP_VAR, m))
    return tuple(mono)


_coeffs = st.builds(Fraction, st.integers(-12, 12).filter(bool), st.integers(1, 12))


@st.composite
def bodies(draw):
    monos = draw(st.lists(monomials(), unique=True, max_size=8))
    return DiffPoly({mono: draw(_coeffs) for mono in monos})


def reference_terms(p):
    """p's (tuple monomial, Fraction) pairs sorted by mono_key, leading first."""
    pairs = [(_decode(m), Fraction(c, p._den)) for m, c in p._nums.items()]
    return sorted(pairs, key=lambda kv: mono_key(kv[0]), reverse=True)


def reference_render(p, name, power="{}^{}", coeff=str, sep="*"):
    """The term renderer as it was with Fractions and mono_key."""
    if not p:
        return "0"
    groups = {}
    for mono, c in reference_terms(p):
        m = 0
        if mono and mono[-1][0] == EXP_VAR:
            mono, m = mono[:-1], mono[-1][1]
        groups.setdefault(m, []).append((mono, c))
    parts = []
    for m in sorted(groups):
        frags = []
        for mono, c in sorted(groups[m], key=lambda kv: mono_key(kv[0]), reverse=True):
            body = sep.join(
                name(v) if e == 1 else power.format(name(v), e) for v, e in mono
            )
            if not body:
                frags.append(coeff(c))
            elif c == 1:
                frags.append(body)
            elif c == -1:
                frags.append(f"-{body}")
            else:
                frags.append(f"{coeff(c)}{sep}{body}")
        text = " + ".join(frags).replace("+ -", "- ")
        exp = {1: "e^w", -1: "e^{-w}"}.get(m, f"e^{{{m}w}}")
        parts.append(f"({text})*{exp}" if m else text)
    return " + ".join(parts)


def reference_latex_coeff(c):
    if c.denominator == 1:
        return str(c.numerator)
    sign = "-" if c < 0 else ""
    return f"{sign}\\tfrac{{{abs(c.numerator)}}}{{{c.denominator}}}"


_LETTER = {KIND_T: "t", KIND_X: "x", KIND_JET: "z", KIND_PAR: "h", KIND_EXP: "e"}


@settings(max_examples=300, deadline=None)
@given(st.lists(monomials(), unique=True, min_size=1, max_size=8))
@example([((X_VAR, 1),), ((X_VAR, 1), (jet(0), 1), (EXP_VAR, -1))])
@example([(), ((EXP_VAR, 1),), ((jet(0), 1), (EXP_VAR, -1))])
@example([((T_VAR, 1), (EXP_VAR, -1)), ((T_VAR, 1), (par(0), 1), (EXP_VAR, -2))])
def test_packed_order_is_mono_key(monos):
    p = DiffPoly({mono: 1 for mono in monos})
    got = [mono for mono, _, _, _ in ordered_terms(p)]
    assert got == sorted(monos, key=mono_key, reverse=True)
    assert [degree for _, degree, _, _ in ordered_terms(p)] == [
        mono_key(mono)[0] for mono in got
    ]


def test_equal_degree_prefix_sorts_first():
    # both have degree 1; the tuple of x is a prefix of the other's
    x = ((X_VAR, 1),)
    longer = ((X_VAR, 1), (jet(0), 1), (EXP_VAR, -1))
    assert mono_key(x) < mono_key(longer)
    p = DiffPoly({x: 1, longer: 1})
    assert [mono for mono, _, _, _ in ordered_terms(p)] == [longer, x]


@settings(max_examples=200, deadline=None)
@given(bodies())
def test_ordered_terms_give_reduced_ratios(p):
    got = [(mono, Fraction(num, den)) for mono, _, num, den in ordered_terms(p)]
    assert got == reference_terms(p)
    for _, _, num, den in ordered_terms(p):
        assert den > 0 and Fraction(num, den).denominator == den
    assert sorted_terms(p) == reference_terms(p)
    assert sorted_terms(p, reverse=False) == reference_terms(p)[::-1]


@settings(max_examples=200, deadline=None)
@given(bodies(), st.sampled_from("uvw"))
def test_renderers_match_the_fraction_reference(p, dep):
    assert render_text(p, dep) == reference_render(p, lambda v: _text_var(v, dep))
    assert render_latex(p, dep) == reference_render(
        p, lambda v: _latex_var(v, dep), "{}^{{{}}}", reference_latex_coeff, " "
    )
    assert str(p) == reference_render(p, var_name)


def reference_json(p, depth):
    payload = [
        [[[_LETTER[kind], idx, e] for (kind, idx), e in mono], str(c)]
        for mono, c in reference_terms(p)
    ]
    return json.dumps(payload, indent=2).replace("\n", "\n" + "  " * depth)


@settings(max_examples=200, deadline=None)
@given(bodies(), st.integers(0, 3))
def test_body_json_matches_the_fraction_reference(p, depth):
    assert "".join(_body_json(p, depth)) == reference_json(p, depth)


def _poly(*monos):
    return DiffPoly({mono: 1 for mono in monos})


_T_E = ((T_VAR, 1), (EXP_VAR, -1))
_T_H_E = ((T_VAR, 1), (par(0), 1), (EXP_VAR, -2))
_Z_H_E = ((jet(2), 1), (jet(9), 1), (par(0), 1), (par(1), 1), (EXP_VAR, -1))
_H_E = ((par(0), 1), (EXP_VAR, 2))


@settings(max_examples=150, deadline=None)
@given(st.lists(bodies(), min_size=2, max_size=4), st.sampled_from("uvw"))
@example([_poly(_T_E), _poly(_T_E, _T_H_E)], "v")
@example([_poly(_T_H_E), _poly(_T_E, _T_H_E)], "v")
@example([_poly(_H_E), _poly(_Z_H_E, _H_E)], "w")
@example([_poly(_Z_H_E), _poly(_Z_H_E, _H_E)], "w")
def test_one_jet_part_table_serves_every_width(polys, dep):
    # a jet part first decoded inside one polynomial must sort and render
    # the same inside a wider or narrower one: the table is shared by every
    # polynomial and every format, as in one gen document
    shared: dict = {}
    for p in polys:
        reference = [(mono, mono_key(mono)[0], c) for mono, c in reference_terms(p)]
        for parts in (shared, None):
            got = [
                (mono, degree, Fraction(num, den))
                for mono, degree, num, den in ordered_terms(p, parts)
            ]
            assert got == reference
            assert render_text(p, dep, parts) == reference_render(
                p, lambda v: _text_var(v, dep)
            )
            assert render_latex(p, dep, parts) == reference_render(
                p, lambda v: _latex_var(v, dep), "{}^{{{}}}", reference_latex_coeff, " "
            )
            for depth in (2, 3):
                assert "".join(_body_json(p, depth, parts)) == reference_json(p, depth)


# the slots other than E's, and the exponents that each field holds
_SLOTS = [T_VAR, X_VAR, *map(jet, range(65)), *map(par, range(65))]
_EXPONENTS = st.integers(1, 127)
_E_EXPONENTS = st.integers(-64, 63)


@st.composite
def packed_monomials(draw):
    """A packed monomial over every slot, with exponents up to each field's limit."""
    chosen = draw(st.lists(st.sampled_from(_SLOTS), unique=True, max_size=5))
    mono = sorted((v, draw(_EXPONENTS)) for v in chosen)
    m = draw(_E_EXPONENTS)
    if m:
        mono.append((EXP_VAR, m))
    return _encode(tuple(mono))


_EXTREMES = [
    (),
    ((T_VAR, 127),),
    ((X_VAR, 127),),
    ((jet(64), 127),),
    ((par(64), 127),),
    ((EXP_VAR, -64),),
    ((EXP_VAR, 63),),
    ((T_VAR, 127), (X_VAR, 127), (jet(0), 1), (par(64), 127), (EXP_VAR, -64)),
    ((jet(0), 1), (jet(64), 1), (par(0), 1), (EXP_VAR, 63)),
]


@settings(max_examples=300, deadline=None)
@given(st.lists(packed_monomials(), unique=True, min_size=2, max_size=8))
@example([_encode(_T_E), _encode(_T_H_E)])
@example([_encode(_Z_H_E), _encode(_H_E)])
@example([_encode(mono) for mono in _EXTREMES])
def test_order_key_sorts_as_mono_key(monos):
    assert sorted(monos, key=order_key) == sorted(monos, key=lambda m: mono_key(_decode(m)))
    # the bytes alone sort as the tuples alone, so the keys agree within any degree
    assert sorted(monos, key=lambda m: order_key(m)[1]) == sorted(monos, key=_decode)
    for m in monos:
        assert order_key(m)[0] == mono_key(_decode(m))[0]


_values = st.one_of(
    st.integers(-(10**30), 10**30),
    st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**12)),
)


@settings(max_examples=300, deadline=None)
@given(_values)
@example(0)
@example(Fraction(0))
@example(-1)
def test_a_constant_hashes_as_its_value(c):
    p = const(c)
    assert p == c
    assert hash(p) == hash(c)
    assert {c: "a"}.get(p) == "a"
    assert {p: "a"}.get(c) == "a"
