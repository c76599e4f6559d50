"""Product-operator algebra: multiplication, commutators, sector tags,
the commuting generator families and their elements.

Everything numeric is checked against dense matrices built locally from
the 2x2 Pauli matrices, so the symbolic algebra never gets to grade its
own homework.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kakpulse.paulis
from kakpulse import (
    CartanElement,
    CartanFamily,
    DimensionError,
    PauliString,
    Subspace,
    ValidationError,
    basis_strings,
    block_cartan_strings,
    block_diagonal_dimension,
    commutator,
    commutes,
    diagonal_strings,
    is_maximal_abelian,
    maximal_abelian_strings,
    multiply,
    outer_cartan_strings,
    subspace_tag,
)

SIGMA = {
    "1": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def dense(word):
    """Independent dense realization of a string (sigma product over 2)."""
    out = np.ones((1, 1), dtype=complex)
    for c in word:
        out = np.kron(out, SIGMA[c])
    if any(c != "1" for c in word):
        out = out / 2.0
    return out


def all_words(n):
    return ["".join(w) for w in itertools.product("1XYZ", repeat=n)]


words_up_to_three = st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.text(alphabet="1XYZ", min_size=n, max_size=n))
word_pairs = st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.tuples(st.text(alphabet="1XYZ", min_size=n, max_size=n),
                        st.text(alphabet="1XYZ", min_size=n, max_size=n)))
word_triples = st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.tuples(st.text(alphabet="1XYZ", min_size=n, max_size=n),
                        st.text(alphabet="1XYZ", min_size=n, max_size=n),
                        st.text(alphabet="1XYZ", min_size=n, max_size=n)))


class TestPauliString:
    def test_rejects_bad_letters(self):
        with pytest.raises(ValidationError):
            PauliString("XA")
        with pytest.raises(ValidationError):
            PauliString("xz")

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValidationError):
            PauliString("")
        with pytest.raises(ValidationError):
            PauliString("X" * 13)

    def test_weight_and_support(self):
        s = PauliString("1XZ1")
        assert s.n == 4
        assert s.weight == 2
        assert s.support == (2, 3)
        assert PauliString("111").weight == 0

    def test_letter_accessor(self):
        s = PauliString("XYZ")
        assert [s.letter(k) for k in (1, 2, 3)] == ["X", "Y", "Z"]
        with pytest.raises(ValidationError):
            s.letter(0)
        with pytest.raises(ValidationError):
            s.letter(4)

    def test_to_matrix_matches_dense(self):
        for word in all_words(1) + all_words(2):
            assert np.allclose(PauliString(word).to_matrix(), dense(word))

    def test_identity_string_realizes_identity(self):
        assert np.array_equal(PauliString("11").to_matrix(), np.eye(4))

    @staticmethod
    def check_against_kron(word):
        s = PauliString(word)
        sigma = dense(word) * (2.0 if s.weight else 1.0)
        src, phase = s.signed_permutation()
        a = np.random.default_rng(len(word)).standard_normal((2 ** s.n, 3))
        assert np.array_equal(phase[:, None] * a[src], sigma @ a)
        assert np.array_equal(s.to_matrix(), dense(word))

    def test_signed_permutation_every_string_up_to_three_spins(self):
        """``sigma_s`` as a signed row permutation and ``to_matrix``
        equal the Kronecker-product oracle exactly, identity included."""
        for n in (1, 2, 3):
            for word in all_words(n):
                self.check_against_kron(word)

    def test_signed_permutation_random_five_spin_strings(self):
        rng = np.random.default_rng(55)
        for _ in range(40):
            self.check_against_kron("".join(rng.choice(list("1XYZ"), 5)))

    def test_signed_permutation_is_cached_and_read_only(self):
        src, phase = PauliString("XYZ1").signed_permutation()
        again = PauliString("XYZ1").signed_permutation()
        assert again[0] is src and again[1] is phase
        with pytest.raises(ValueError):
            src[0] = 1
        with pytest.raises(ValueError):
            phase[0] = 1.0
        self.check_against_kron("XYZ1")


def test_multiply_exhaustive_one_and_two_spins():
    """Every pair of words (identity included) against dense algebra."""
    for n in (1, 2):
        for wa in all_words(n):
            for wb in all_words(n):
                term = multiply(wa, wb)
                got = term.coeff * dense(term.string.letters)
                assert np.allclose(got, dense(wa) @ dense(wb), atol=1e-14), \
                    f"{wa} * {wb}"


def test_multiply_three_spins_sampled():
    rng = np.random.default_rng(2024)
    words = all_words(3)
    for _ in range(200):
        wa = words[rng.integers(len(words))]
        wb = words[rng.integers(len(words))]
        term = multiply(wa, wb)
        got = term.coeff * dense(term.string.letters)
        assert np.allclose(got, dense(wa) @ dense(wb), atol=1e-14)


def test_multiply_frozen_values():
    t = multiply("X", "X")
    assert t.string.letters == "1" and t.coeff == 0.25

    t = multiply("XX", "YY")
    assert t.string.letters == "ZZ"
    assert t.coeff == pytest.approx(-0.5)

    t = multiply("X", "1")
    assert t.string.letters == "X" and t.coeff == 1.0


def test_multiply_length_mismatch():
    with pytest.raises(DimensionError):
        multiply("X", "XX")


def test_commutator_matches_dense_two_spins():
    strings = basis_strings(2)
    for a in strings:
        for b in strings:
            got = commutator(a, b)
            want = dense(a.letters) @ dense(b.letters) \
                - dense(b.letters) @ dense(a.letters)
            if got is None:
                assert np.allclose(want, 0, atol=1e-14)
            else:
                assert np.allclose(got.coeff * dense(got.string.letters),
                                   want, atol=1e-14)


def test_commutator_frozen_values():
    t = commutator("X", "Y")
    assert t.string.letters == "Z"
    assert t.coeff == 1j

    assert commutator("X1", "1Y") is None  # disjoint supports
    assert commutator("XX", "YY") is None


def test_commutes_is_the_clash_parity():
    assert commutes("XX", "YY")
    assert not commutes("XZ", "ZZ")
    assert commutes("X1Y", "1Z1")
    with pytest.raises(DimensionError):
        commutes("X", "XY")


@given(word_pairs)
@settings(max_examples=150, deadline=None)
def test_product_agrees_with_dense(pair):
    wa, wb = pair
    term = multiply(wa, wb)
    got = term.coeff * dense(term.string.letters)
    assert np.allclose(got, dense(wa) @ dense(wb), atol=1e-14)


@given(words_up_to_three)
@settings(max_examples=80, deadline=None)
def test_square_collapses_to_identity(word):
    term = multiply(word, word)
    assert term.string.weight == 0
    want = 0.25 if any(c != "1" for c in word) else 1.0
    assert term.coeff == want


@given(word_triples)
@settings(max_examples=120, deadline=None)
def test_product_is_associative(triple):
    a, b, c = triple
    ab = multiply(a, b)
    bc = multiply(b, c)
    left = multiply(ab.string, c)
    right = multiply(a, bc.string)
    assert left.string == right.string
    assert ab.coeff * left.coeff == pytest.approx(bc.coeff * right.coeff)


@given(word_pairs)
@settings(max_examples=100, deadline=None)
def test_commutator_antisymmetry(pair):
    wa, wb = pair
    fwd = commutator(wa, wb)
    rev = commutator(wb, wa)
    if fwd is None:
        assert rev is None
    else:
        assert fwd.string == rev.string
        assert fwd.coeff == pytest.approx(-rev.coeff)


def test_trace_orthogonality():
    """tr(B_r B_s) = delta_rs * 2**(n-2), including the n=1 half."""
    for n in (1, 2, 3):
        strings = basis_strings(n)
        mats = [dense(s.letters) for s in strings]
        scale = 2.0 ** (n - 2)
        for i, mi in enumerate(mats):
            assert abs(np.trace(mi)) < 1e-14
            for j, mj in enumerate(mats):
                want = scale if i == j else 0.0
                assert np.trace(mi @ mj) == pytest.approx(want, abs=1e-13)


def test_basis_strings_enumeration():
    for n in (1, 2, 3):
        strings = basis_strings(n)
        assert len(strings) == 4 ** n - 1
        assert len(set(strings)) == len(strings)
        assert all(s.weight >= 1 for s in strings)
        letters = [s.letters for s in strings]
        assert letters == sorted(letters)
    two = basis_strings(2)
    assert sum(1 for s in two if s.weight == 1) == 6
    assert sum(1 for s in two if s.weight == 2) == 9


def test_basis_strings_range():
    with pytest.raises(ValidationError):
        basis_strings(0)
    with pytest.raises(ValidationError):
        basis_strings(13)


# ---------------------------------------------------------------------------
# Sector tags


def test_subspace_tag_examples():
    assert subspace_tag("XX") is Subspace.MIXING
    assert subspace_tag("1Y") is Subspace.MIXING
    assert subspace_tag("Z1") is Subspace.BLOCK_PLAIN
    assert subspace_tag("ZZ1") is Subspace.BLOCK_PLAIN
    assert subspace_tag("ZZ") is Subspace.BLOCK_Z
    assert subspace_tag("1XZ") is Subspace.BLOCK_Z
    assert subspace_tag("1Z") is Subspace.PHASE
    assert subspace_tag("Z") is Subspace.PHASE
    with pytest.raises(ValidationError):
        subspace_tag("11")


def test_tags_partition_the_basis():
    for n in (2, 3):
        counts = {tag: 0 for tag in Subspace}
        for s in basis_strings(n):
            counts[subspace_tag(s)] += 1
        assert counts[Subspace.PHASE] == 1
        assert counts[Subspace.MIXING] == 2 * 4 ** (n - 1)
        assert sum(counts.values()) == 4 ** n - 1


def test_block_diagonal_dimension():
    for n in (2, 3, 4):
        direct = sum(1 for s in basis_strings(n)
                     if subspace_tag(s).is_block_diagonal)
        assert block_diagonal_dimension(n) == direct == 2 * 4 ** (n - 1) - 1
    with pytest.raises(ValidationError):
        block_diagonal_dimension(1)


# ---------------------------------------------------------------------------
# Generator families


def test_family_cardinalities():
    for n in range(2, 7):
        assert len(outer_cartan_strings(n)) == 2 ** (n - 1)
        assert len(block_cartan_strings(n)) == 2 ** (n - 1) - 1
        assert len(maximal_abelian_strings(n)) == 2 ** n - 1


def test_family_members_commute():
    for n in range(2, 7):
        for family in (outer_cartan_strings(n), block_cartan_strings(n),
                       maximal_abelian_strings(n)):
            for a, b in itertools.combinations(family, 2):
                assert commutes(a, b), f"{a} vs {b}"


def test_family_examples():
    assert [s.letters for s in maximal_abelian_strings(2)] == ["XX", "YY", "ZZ"]
    assert [s.letters for s in outer_cartan_strings(2)] == ["1X", "ZX"]
    assert [s.letters for s in block_cartan_strings(2)] == ["ZZ"]
    assert [s.letters for s in outer_cartan_strings(3)] == \
        ["11X", "XXX", "YYX", "ZZX"]
    assert {s.letters for s in block_cartan_strings(4)} == \
        {"XX1Z", "YY1Z", "ZZ1Z", "11XZ", "XXXZ", "YYXZ", "ZZXZ"}


def test_family_sector_tags():
    for n in (2, 3, 4):
        assert all(subspace_tag(s) is Subspace.MIXING
                   for s in outer_cartan_strings(n))
        assert all(subspace_tag(s) is Subspace.BLOCK_Z
                   for s in block_cartan_strings(n))


def test_diagonal_strings_shape():
    for n in (2, 3, 4):
        family = diagonal_strings(n)
        assert len(family) == 2 ** (n - 1)
        assert family[0].letters == "1" * (n - 1) + "Z"
        for s in family:
            assert set(s.letters) <= {"1", "Z"}
            assert s.letters[-1] == "Z"
    assert [s.letters for s in diagonal_strings(3)] == \
        ["11Z", "1ZZ", "Z1Z", "ZZZ"]


def test_family_range_errors():
    for fn in (outer_cartan_strings, block_cartan_strings,
               maximal_abelian_strings, diagonal_strings):
        with pytest.raises(ValidationError):
            fn(1)


def test_maximal_abelian_known_cases():
    assert is_maximal_abelian(maximal_abelian_strings(2), 2)
    assert is_maximal_abelian(maximal_abelian_strings(3), 3)
    # products count toward the closure: XX * YY lands on ZZ
    assert is_maximal_abelian([PauliString("XX"), PauliString("YY")], 2)
    assert not is_maximal_abelian([PauliString("XX")], 2)
    assert not is_maximal_abelian([PauliString("XX")], 2, Subspace.MIXING)


def test_maximal_abelian_in_ambient_sectors():
    for n in (2, 3):
        assert is_maximal_abelian(outer_cartan_strings(n), n, Subspace.MIXING)
        assert is_maximal_abelian(block_cartan_strings(n), n, Subspace.BLOCK_Z)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_trailing_x_family_is_maximal_in_the_mixing_sector(n):
    """The emitted ``OUTER_X`` family, the diagonal strings with a
    trailing X in mask order, is a maximal abelian subalgebra of the
    mixing sector, as the paper's ``outer_cartan_strings`` is."""
    strings = CartanFamily.OUTER_X.strings(n)
    assert [s.letters for s in strings] == \
        [s.letters[:-1] + "X" for s in diagonal_strings(n)]
    assert is_maximal_abelian(strings, n, Subspace.MIXING)


def test_maximal_abelian_input_validation():
    with pytest.raises(ValidationError):
        is_maximal_abelian([], 2)
    with pytest.raises(ValidationError):
        is_maximal_abelian([PauliString("11")], 2)
    with pytest.raises(DimensionError):
        is_maximal_abelian([PauliString("X")], 2)


# ---------------------------------------------------------------------------
# Commuting-family elements


def test_cartan_element_hamiltonian():
    elem = CartanElement(
        n=3, family=CartanFamily.OUTER_X,
        coeffs={PauliString("ZZX"): -0.2, PauliString("11X"): 0.3})
    want = -0.2 * dense("ZZX") + 0.3 * dense("11X")
    assert np.allclose(elem.hamiltonian(), want)


def test_cartan_element_items_in_family_order():
    elem = CartanElement(
        n=3, family=CartanFamily.OUTER_X,
        coeffs={PauliString("ZZX"): 1.0, PauliString("11X"): 2.0})
    assert [s.letters for s, _ in elem.items()] == ["11X", "ZZX"]


def test_cartan_element_rejects_foreign_strings():
    with pytest.raises(ValidationError):
        CartanElement(n=3, family=CartanFamily.OUTER_X,
                      coeffs={PauliString("XXZ"): 1.0})
    with pytest.raises(ValidationError):
        CartanElement(n=2, family=CartanFamily.MAXIMAL,
                      coeffs={PauliString("ZX"): 1.0})


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("family", list(CartanFamily), ids=lambda f: f.value)
def test_every_family_element_commutes(family, n):
    """An element checks only membership; the family it draws from
    commutes pairwise, so every element's strings do."""
    strings = family.strings(n)
    assert all(commutes(a, b) for a, b in itertools.combinations(strings, 2))
    elem = CartanElement(n=n, family=family, coeffs={s: 0.1 for s in strings})
    assert [s for s, _ in elem.items()] == strings


def test_a_non_commuting_family_is_caught_once_built(monkeypatch):
    monkeypatch.setattr(kakpulse.paulis, "diagonal_strings",
                        lambda n: [PauliString("XZ"), PauliString("ZZ")])
    kakpulse.paulis._family_order.cache_clear()
    try:
        with pytest.raises(ValidationError):
            CartanElement(n=2, family=CartanFamily.DIAGONAL, coeffs={})
    finally:
        kakpulse.paulis._family_order.cache_clear()


def test_cartan_element_rejects_non_finite():
    with pytest.raises(ValidationError):
        CartanElement(n=2, family=CartanFamily.DIAGONAL,
                      coeffs={PauliString("1Z"): float("nan")})


def test_cartan_element_empty_is_zero():
    elem = CartanElement(n=2, family=CartanFamily.DIAGONAL, coeffs={})
    assert np.array_equal(elem.hamiltonian(), np.zeros((4, 4)))
