"""Field arithmetic against independent oracles and frozen examples."""

import pytest

from skewcache import (
    DEFAULT_MODULI,
    BinaryMatrix,
    FieldSpec,
    const_mul_matrix,
    default_modulus,
    from_poly_terms,
    is_irreducible,
    poly_str,
    poly_terms,
)
from skewcache.field import MAX_DEGREE

from support import (
    MODULUS_256,
    check_field_axioms,
    is_identity,
    schoolbook_mul,
    search_inverse,
    small_fields,
)

GF4 = FieldSpec.binary(2)           # modulus 0b111
GF8 = FieldSpec.binary(3)           # modulus 0b1011
GF7 = FieldSpec.prime(7)


class TestConstruction:
    def test_defaults_fill_in_modulus(self):
        assert GF4.modulus == 0b111
        assert GF8.modulus == 0b1011
        assert FieldSpec.binary(7).modulus == 0b10000011

    def test_order_cached(self):
        assert GF4.order == 4
        assert GF7.order == 7
        assert FieldSpec.binary(6).order == 64

    def test_rejects_nonprime_characteristic(self):
        with pytest.raises(ValueError):
            FieldSpec(p=4)
        with pytest.raises(ValueError):
            FieldSpec(p=1)

    def test_rejects_odd_prime_extension(self):
        with pytest.raises(ValueError):
            FieldSpec(p=3, n=2)

    def test_rejects_reducible_modulus(self):
        with pytest.raises(ValueError):
            FieldSpec.binary(2, modulus=0b101)   # (x+1)^2
        with pytest.raises(ValueError):
            FieldSpec.binary(3, modulus=0b1111)  # divisible by x+1

    def test_rejects_wrong_degree_modulus(self):
        with pytest.raises(ValueError):
            FieldSpec.binary(3, modulus=0b111)

    @pytest.mark.parametrize("n,modulus", [(3, -11), (2, -7), (4, -19), (3, -1)])
    def test_rejects_negative_modulus(self, n, modulus):
        # bit_length() ignores the sign: -11 would pass as x^3+x+1
        with pytest.raises(ValueError, match=f"modulus {modulus} is negative"):
            FieldSpec.binary(n, modulus)

    @pytest.mark.parametrize("p,modulus", [(5, 7), (2, 3), (7, -1)])
    def test_prime_field_rejects_modulus(self, p, modulus):
        with pytest.raises(ValueError, match=f"{modulus}"):
            FieldSpec(p=p, n=1, modulus=modulus)
        assert FieldSpec(p=p, n=1, modulus=0).modulus == 0

    def test_rejects_oversized_degree(self):
        with pytest.raises(ValueError):
            FieldSpec.binary(17)

    def test_rejects_characteristic_above_limit_before_primality(self):
        # 2^61 - 1 is prime; trial division of it would run for minutes
        for p in (2 ** 61 - 1, (1 << MAX_DEGREE) + 1):
            with pytest.raises(ValueError, match="exceeds"):
                FieldSpec(p=p)

    def test_no_default_modulus_above_seven(self):
        with pytest.raises(ValueError):
            default_modulus(8)
        assert FieldSpec.binary(8, modulus=MODULUS_256).order == 256


class TestExamples:
    def test_add(self):
        assert GF4.add(2, 3) == 1
        assert GF7.add(5, 4) == 2
        assert GF8.add(0, 6) == 6

    def test_sub(self):
        assert GF4.sub(1, 1) == 0
        assert GF7.sub(2, 5) == 4
        assert GF8.sub(5, 3) == 6

    def test_mul(self):
        # frozen from the schoolbook multiply-then-divide oracle
        assert GF4.mul(2, 3) == 1
        assert GF8.mul(3, 3) == 5
        assert GF8.mul(1, 6) == 6

    def test_inv(self):
        assert GF4.inv(2) == 3
        assert GF4.inv(1) == 1
        assert GF7.inv(3) == 5

    def test_range_errors(self):
        with pytest.raises(ValueError):
            GF4.add(4, 0)
        with pytest.raises(ValueError):
            GF4.mul(0, 7)
        with pytest.raises(ValueError):
            GF7.sub(7, 0)

    def test_inv_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            GF4.inv(0)
        with pytest.raises(ZeroDivisionError):
            GF7.inv(0)


class TestAgainstOracles:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_mul_matches_schoolbook(self, n):
        f = FieldSpec.binary(n, modulus=MODULUS_256 if n == 8 else 0)
        for x in range(f.order):
            for y in range(f.order):
                assert f.mul(x, y) == schoolbook_mul(f.modulus, x, y)

    @pytest.mark.parametrize("f", [GF4, GF8, GF7, FieldSpec.prime(13)])
    def test_inv_matches_search(self, f):
        for x in range(1, f.order):
            assert f.inv(x) == search_inverse(f, x)

    def test_axioms_smoke(self):
        # the full order<=256 sweep runs in the acceptance suite
        for f in small_fields(32):
            check_field_axioms(f)


class TestIrreducibility:
    def test_examples(self):
        assert is_irreducible(3, 0b1011)
        assert is_irreducible(4, 0b10011)
        assert not is_irreducible(2, 0b101)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            is_irreducible(3, 0b10011)
        with pytest.raises(ValueError):
            is_irreducible(4, 0b1011)

    def test_default_table_is_irreducible(self):
        for n, modulus in DEFAULT_MODULI.items():
            assert is_irreducible(n, modulus), bin(modulus)

    def test_counts_for_degree_four(self):
        # there are exactly three irreducible quartics over GF(2)
        found = [c for c in range(1 << 4, 1 << 5) if is_irreducible(4, c)]
        assert found == [0b10011, 0b11001, 0b11111]


class TestEncoding:
    def test_fortytwo_round_trip(self):
        assert poly_terms(42) == (5, 3, 1)
        assert from_poly_terms((5, 3, 1)) == 42
        assert 0b00101010 == 42

    def test_poly_str(self):
        assert poly_str(0b1011) == "x^3+x+1"
        assert poly_str(0) == "0"
        assert poly_str(1) == "1"

    def test_round_trip_everywhere(self):
        for v in range(512):
            assert from_poly_terms(poly_terms(v)) == v


class TestConstMulMatrix:
    def test_identity(self):
        m = const_mul_matrix(GF8, 1)
        assert is_identity(m)
        assert m.cols == (1, 2, 4)

    def test_examples(self):
        assert const_mul_matrix(GF8, 2).cols == (2, 4, 3)
        assert const_mul_matrix(GF4, 3).cols == (3, 1)

    def test_rows_transpose_columns(self):
        m = const_mul_matrix(GF8, 5)
        for i in range(3):
            for j in range(3):
                assert (m.row(i) >> j) & 1 == (m.cols[j] >> i) & 1

    def test_rejects_prime_fields(self):
        with pytest.raises(ValueError):
            const_mul_matrix(GF7, 3)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_apply_matches_mul_exhaustively(self, n):
        f = FieldSpec.binary(n, modulus=MODULUS_256 if n == 8 else 0)
        for k in range(f.order):
            matrix = const_mul_matrix(f, k)
            for x in range(f.order):
                assert matrix.apply(x) == f.mul(k, x)

    def test_apply_identity_weightless(self):
        assert BinaryMatrix(2, (1, 2)).apply(3) == 3
