import pytest
from hypothesis import given, settings, strategies as st

from ringlattice import dsl, finring as fr


E5_TEXT = """\
# flagship instance
ring F2 = gf(2)
ring Rx = quotient(F2, [x^2])
ring K4 = gf(2, 2)
ring S = product(Rx, K4)
ext E5 = extension(S, base=[])
"""


def test_parse_single_ring():
    spec = dsl.parse_spec("ring R = zmod(4)")
    assert spec.rings == (("R", dsl.RZmod(4)),)
    assert spec.exts == ()


def test_parse_and_build_e5():
    spec = dsl.parse_spec(E5_TEXT)
    assert [name for name, _ in spec.rings] == ["F2", "Rx", "K4", "S"]
    rings, exts = dsl.build(spec)
    assert rings["S"].size == 16
    assert len(exts["E5"].lattice().nodes) == 6


def test_roundtrip_is_stable():
    spec = dsl.parse_spec(E5_TEXT)
    text2 = dsl.pretty(spec)
    assert dsl.parse_spec(text2) == spec
    assert dsl.pretty(dsl.parse_spec(text2)) == text2


def test_roundtrip_covers_all_constructors():
    text = """\
option cap = 512
ring A = zmod(6)
ring B = gf(3, 2)
ring C = quotient(A, [y^2 - 3*y, 2*y])
ring D = idealization(B, module([3, 3], x*m1 -> m2, x*m2 -> m1 + 2*m2))
ring P = product(A, B, C)
ext E = extension(P, base=[(3, x + 1, y), (0, 0, 1)])
"""
    spec = dsl.parse_spec(text)
    assert dsl.parse_spec(dsl.pretty(spec)) == spec


def test_degenerate_modulus_error_position():
    with pytest.raises(dsl.DslError) as exc:
        dsl.parse_spec("ring R = zmod(0)")
    assert exc.value.line == 1 and exc.value.col == 15
    assert "modulus" in str(exc.value)


@pytest.mark.parametrize("text", ["ring R = gf(4)", "ring R = gf(9)", "ring R = gf(4, 2)"])
def test_composite_characteristic_error_position(text):
    # rejected at the characteristic's token, not later by the ring builder
    with pytest.raises(dsl.DslError) as exc:
        dsl.parse_spec(text)
    assert (exc.value.line, exc.value.col) == (1, 13)
    assert exc.value.message == "characteristic must be a prime >= 2"


def test_semantic_errors_are_positioned():
    for text, fragment in [
        ("ring R = product(A, B)", "unknown ring name"),
        ("ring R = gf(2)\nring R = gf(3)", "duplicate"),
        ("ext E = extension(Q, base=[])", "unknown ring name"),
        ("ring R = nonsense(3)", "unknown ring constructor"),
        ("ring R = zmod(4) trailing", "end of statement"),
    ]:
        with pytest.raises(dsl.DslError) as exc:
            dsl.parse_spec(text)
        assert fragment in exc.value.message


def test_build_unknown_generator_in_base():
    text = "ring R = zmod(4)\next E = extension(R, base=[q])"
    spec = dsl.parse_spec(text)
    with pytest.raises(fr.RingError, match="unknown generator"):
        dsl.build(spec)


def test_tuple_arity_checked():
    text = "ring A = gf(2)\nring P = product(A, A)\n" \
           "ext E = extension(P, base=[(1, 0, 1)])"
    with pytest.raises(fr.RingError, match="components"):
        dsl.build(dsl.parse_spec(text))


def test_cap_option_enforced():
    text = "option cap = 8\nring R = zmod(16)\next E = extension(R, base=[])"
    with pytest.raises(fr.SizeCapError):
        dsl.build(dsl.parse_spec(text))


def test_explicit_cap_overrides_option():
    text = "option cap = 8\nring R = zmod(16)\next E = extension(R, base=[])"
    _, exts = dsl.build(dsl.parse_spec(text), size_cap=64)
    assert len(exts["E"].top) == 16


def test_negative_coefficients_and_constants():
    text = "ring R = zmod(5)\next E = extension(R, base=[-1 + 3, 2])"
    _, exts = dsl.build(dsl.parse_spec(text))
    assert len(exts["E"].base) == 5


def test_elem_str_roundtrips_through_parser():
    # rendered element strings must evaluate back to the same element
    F2 = fr.gf(2)
    Rt = fr.quotient_by_relations(F2, [fr.resolve_relation(F2, [((("t", 2),), 1)])])
    S = fr.product_ring([Rt, fr.gf(2, 2)])
    for idx in range(S.size):
        expr_text = f"ring F2 = gf(2)\nring Rt = quotient(F2, [t^2])\n" \
                    f"ring K = gf(2, 2)\nring S = product(Rt, K)\n" \
                    f"ext E = extension(S, base=[{S.elem_str(idx)}])"
        _, exts = dsl.build(dsl.parse_spec(expr_text))
        assert idx in exts["E"].base


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=120))
def test_parser_total_on_arbitrary_text(text):
    try:
        dsl.parse_spec(text)
    except dsl.DslError as e:
        assert e.line >= 1 and e.col >= 1


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet="ring ext option =()[],+-*^#\n0123456789abxyz", max_size=80))
def test_parser_total_on_grammar_like_text(text):
    try:
        dsl.parse_spec(text)
    except dsl.DslError:
        pass
