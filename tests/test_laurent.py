from hypothesis import given, strategies as st

from wcell.laurent import LaurentPolynomial, ONE, Q, QINV


def test_product_difference_of_squares():
    assert (Q - QINV) * (Q + QINV) == LaurentPolynomial({2: 1, -2: -1})


def test_quadratic_identity_of_generator_eigenvalue():
    # (-q^-1)^2 == 1 + (q - q^-1)(-q^-1)
    lhs = (-QINV) * (-QINV)
    rhs = ONE + (Q - QINV) * (-QINV)
    assert lhs == rhs == LaurentPolynomial({-2: 1})


def test_int_interop_and_zero_normalisation():
    assert Q - Q == 0
    assert (Q * 0).is_zero()
    assert 1 + Q == LaurentPolynomial({0: 1, 1: 1})
    assert LaurentPolynomial({5: 0}) == 0


def test_repr_is_readable():
    assert repr(Q - QINV) == "q - q^-1"
    assert repr(LaurentPolynomial(0)) == "0"


small_polys = st.dictionaries(
    st.integers(-4, 4), st.integers(-9, 9), max_size=5
).map(LaurentPolynomial)


@given(small_polys, small_polys, small_polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + LaurentPolynomial(0) == a
    assert a * ONE == a
