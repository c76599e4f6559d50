"""Exact product-operator algebra for chains of spin-1/2 particles.

Strings, scales and indexing
----------------------------
Operators on ``n`` spins are labelled by strings over the alphabet
``1XYZ``; for example ``"ZZ1"`` acts on spins 1 and 2 of a 3-spin chain
and leaves spin 3 alone.  Spin ``k`` is the ``k``-th Kronecker factor
from the left, i.e. spin 1 owns the most significant bit of a
computational-basis index.

Single-spin operators are the spin operators ``I_a = sigma_a / 2``
rather than bare Pauli matrices.  A string with ``q >= 1`` non-identity
letters realizes as the basis-normalized product operator

    B_s = 2**(q-1) * prod_k I_(k, s_k)  =  sigma_s / 2

so that ``tr(B_r @ B_s) = 2**(n-2) * delta_rs``, while the all-identity
string realizes as the identity matrix.  Every coefficient produced by
:func:`multiply` and :func:`commutator`, and every coefficient of a
:class:`CartanElement`, is relative to these realizations; getting this
scale wrong by a factor of two is the classic mistake in the
rotating-frame literature, so it is pinned down here once and tested
heavily.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DimensionError, ValidationError, _json_finite, _json_int

MAX_SPINS = 12

# sigma_x sigma_y = i sigma_z and cyclic; the table is consulted at call
# time so the self-test harness can inject faults into it.
_EPSILON = {
    "XY": (1j, "Z"), "YZ": (1j, "X"), "ZX": (1j, "Y"),
    "YX": (-1j, "Z"), "ZY": (-1j, "X"), "XZ": (-1j, "Y"),
}


def _letter_product(x: str, y: str) -> tuple[complex, str]:
    if x == "1":
        return 1 + 0j, y
    if y == "1":
        return 1 + 0j, x
    if x == y:
        return 1 + 0j, "1"
    return _EPSILON[x + y]


@functools.lru_cache(maxsize=1024)
def _signed_permutation(letters: str) -> tuple[np.ndarray, np.ndarray]:
    x_mask = z_mask = 0
    for c in letters:
        x_mask = (x_mask << 1) | (c in "XY")
        z_mask = (z_mask << 1) | (c in "YZ")
    rows = np.arange(2 ** len(letters))
    parity = np.zeros_like(rows)
    for bit in range(len(letters)):
        if (z_mask >> bit) & 1:
            parity ^= (rows >> bit) & 1
    phase = ((-1j) ** letters.count("Y") * (1 - 2 * parity)).astype(complex)
    src = rows ^ x_mask
    src.flags.writeable = False
    phase.flags.writeable = False
    return src, phase


@dataclass(frozen=True, order=True)
class PauliString:
    """A word over ``1XYZ`` naming one product operator on a chain."""

    letters: str

    def __post_init__(self):
        if not (1 <= len(self.letters) <= MAX_SPINS):
            raise ValidationError(
                f"string length must be in [1, {MAX_SPINS}], got {len(self.letters)}")
        bad = set(self.letters) - set("1XYZ")
        if bad:
            raise ValidationError(f"invalid letters {sorted(bad)} in {self.letters!r}")

    @property
    def n(self) -> int:
        return len(self.letters)

    @property
    def weight(self) -> int:
        """Number of non-identity letters."""
        return sum(1 for c in self.letters if c != "1")

    @property
    def support(self) -> tuple[int, ...]:
        """1-based spin indices carrying a non-identity letter."""
        return tuple(k + 1 for k, c in enumerate(self.letters) if c != "1")

    def letter(self, spin: int) -> str:
        """Letter on 1-based ``spin``."""
        if not 1 <= spin <= self.n:
            raise ValidationError(f"spin {spin} outside 1..{self.n}")
        return self.letters[spin - 1]

    def signed_permutation(self) -> tuple[np.ndarray, np.ndarray]:
        """``(src, phase)`` with ``(sigma_s @ a)[r] = phase[r] * a[src[r]]``.

        ``sigma_s`` is the bare Pauli product (``2 * B_s`` for a
        non-identity string).  Each X or Y letter flips its spin's bit, so
        ``src = r ^ x_mask``; each Z or Y letter contributes
        ``(-1)**bit``, and each Y a further ``-1j``.  Costs ``O(n * 2**n)``
        once per letters; the cached arrays are returned read-only.
        """
        return _signed_permutation(self.letters)

    def to_matrix(self) -> np.ndarray:
        """Dense realization: ``sigma_s / 2`` (identity string -> identity)."""
        dim = 2 ** self.n
        if self.weight == 0:
            return np.eye(dim, dtype=complex)
        src, phase = self.signed_permutation()
        out = np.zeros((dim, dim), dtype=complex)
        out[np.arange(dim), src] = phase / 2.0
        return out

    def __str__(self) -> str:
        return self.letters


@dataclass(frozen=True)
class PauliTerm:
    """A scalar multiple of one product operator."""

    string: PauliString
    coeff: complex

    def to_matrix(self) -> np.ndarray:
        return self.coeff * self.string.to_matrix()


def _as_string(s: PauliString | str) -> PauliString:
    return s if isinstance(s, PauliString) else PauliString(s)


def _scale(s: PauliString) -> float:
    # trace-normalized realization scale: B_s = _scale * prod(sigma)
    return 0.5 if s.weight else 1.0


def multiply(a: PauliString | str, b: PauliString | str) -> PauliTerm:
    """Product of two realized strings, ``B_a @ B_b = coeff * B_c``.

    Example: ``multiply("XX", "YY")`` is ``-0.5 * B_ZZ`` because
    ``(sigma_x sigma_x / 2)(sigma_y sigma_y / 2) = -sigma_z sigma_z / 4``.
    """
    a, b = _as_string(a), _as_string(b)
    if a.n != b.n:
        raise DimensionError(f"length mismatch: {a} vs {b}")
    phase = 1 + 0j
    out = []
    for x, y in zip(a.letters, b.letters):
        p, c = _letter_product(x, y)
        phase *= p
        out.append(c)
    c = PauliString("".join(out))
    coeff = phase * _scale(a) * _scale(b) / _scale(c)
    return PauliTerm(c, coeff)


def commutes(a: PauliString | str, b: PauliString | str) -> bool:
    """True iff the realized operators commute.

    Two strings commute exactly when the number of positions where both
    letters are non-identity and different is even.
    """
    a, b = _as_string(a), _as_string(b)
    if a.n != b.n:
        raise DimensionError(f"length mismatch: {a} vs {b}")
    clashes = sum(1 for x, y in zip(a.letters, b.letters)
                  if x != "1" and y != "1" and x != y)
    return clashes % 2 == 0


def commutator(a: PauliString | str, b: PauliString | str) -> PauliTerm | None:
    """``[B_a, B_b]`` as a single term, or None when it vanishes."""
    a, b = _as_string(a), _as_string(b)
    if commutes(a, b):
        return None
    prod = multiply(a, b)
    return PauliTerm(prod.string, 2 * prod.coeff)


def basis_strings(n: int) -> list[PauliString]:
    """All ``4**n - 1`` non-identity strings on ``n`` spins, lexicographic."""
    if not 1 <= n <= MAX_SPINS:
        raise ValidationError(f"n must be in [1, {MAX_SPINS}], got {n}")
    out = [PauliString("".join(w)) for w in itertools.product("1XYZ", repeat=n)]
    return [s for s in out if s.weight > 0]


# ---------------------------------------------------------------------------
# Sector tags


class Subspace(Enum):
    """Sector of a string under the last-spin block grading.

    * ``MIXING``: last letter X or Y; the operator mixes the two
      computational sectors of the last spin.
    * ``BLOCK_PLAIN``: last letter 1; block-diagonal, acts identically on
      both sectors.
    * ``BLOCK_Z``: last letter Z with more than one active spin;
      block-diagonal with opposite sign between sectors.
    * ``PHASE``: the lone Z on the last spin; generates the relative
      phase between the two sectors.
    """

    MIXING = "mixing"
    BLOCK_PLAIN = "block_plain"
    BLOCK_Z = "block_z"
    PHASE = "phase"

    @property
    def is_block_diagonal(self) -> bool:
        return self is not Subspace.MIXING


def subspace_tag(s: PauliString | str) -> Subspace:
    """Classify a non-identity string by its last letter."""
    s = _as_string(s)
    if s.weight == 0:
        raise ValidationError("the identity string carries no tag")
    last = s.letters[-1]
    if last in "XY":
        return Subspace.MIXING
    if last == "1":
        return Subspace.BLOCK_PLAIN
    if s.weight == 1:
        return Subspace.PHASE
    return Subspace.BLOCK_Z


def block_diagonal_dimension(n: int) -> int:
    """Number of strings tagged block-diagonal on ``n`` spins.

    Counts ``BLOCK_PLAIN`` + ``BLOCK_Z`` + ``PHASE`` strings:
    ``(4**(n-1) - 1) + (4**(n-1) - 1) + 1 = 2 * 4**(n-1) - 1``.
    """
    if not 2 <= n <= MAX_SPINS:
        raise ValidationError(f"n must be in [2, {MAX_SPINS}], got {n}")
    return 2 * 4 ** (n - 1) - 1


# ---------------------------------------------------------------------------
# Commuting generator families


def maximal_abelian_strings(n: int) -> list[PauliString]:
    """The recursive maximal commuting family (``2**n - 1`` strings).

    Base case ``n = 2`` is ``XX, YY, ZZ``; each level keeps the previous
    family padded with a trailing 1 and adjoins the trailing-X family.
    """
    if not 2 <= n <= MAX_SPINS:
        raise ValidationError(f"n must be in [2, {MAX_SPINS}], got {n}")
    if n == 2:
        return [PauliString("XX"), PauliString("YY"), PauliString("ZZ")]
    prev = maximal_abelian_strings(n - 1)
    padded = [PauliString(s.letters + "1") for s in prev]
    return padded + outer_cartan_strings(n)


def outer_cartan_strings(n: int) -> list[PauliString]:
    """Generators whose evolutions couple the last spin (``2**(n-1)`` strings).

    For ``n >= 3`` these are ``1...1X`` plus the previous maximal
    commuting family with a trailing X.  At ``n = 2`` the same shape
    grounds on the one-spin family ``{Z}``, giving ``1X, ZX`` (rank 2,
    matching the two cosine-sine angles of a half/half split).
    """
    if not 2 <= n <= MAX_SPINS:
        raise ValidationError(f"n must be in [2, {MAX_SPINS}], got {n}")
    if n == 2:
        return [PauliString("1X"), PauliString("ZX")]
    prev = maximal_abelian_strings(n - 1)
    head = PauliString("1" * (n - 1) + "X")
    return [head] + [PauliString(s.letters + "X") for s in prev]


def block_cartan_strings(n: int) -> list[PauliString]:
    """Generators for the block-internal commuting family (``2**(n-1) - 1``).

    For ``n >= 3`` this is the previous maximal commuting family with a
    trailing Z.  At ``n = 2`` the one-spin family ``{Z}`` grounds the
    recursion, giving ``["ZZ"]``.
    """
    if not 2 <= n <= MAX_SPINS:
        raise ValidationError(f"n must be in [2, {MAX_SPINS}], got {n}")
    if n == 2:
        return [PauliString("ZZ")]
    prev = maximal_abelian_strings(n - 1)
    return [PauliString(s.letters + "Z") for s in prev]


def diagonal_strings(n: int) -> list[PauliString]:
    """All ``2**(n-1)`` strings over ``{1, Z}`` ending in Z; the bare
    last-spin Z is included.

    Ordered by the binary mask of the leading ``n - 1`` letters, so the
    first entry is ``1...1Z``.
    """
    if not 2 <= n <= MAX_SPINS:
        raise ValidationError(f"n must be in [2, {MAX_SPINS}], got {n}")
    out = []
    for mask in range(2 ** (n - 1)):
        head = "".join("Z" if (mask >> (n - 2 - k)) & 1 else "1"
                       for k in range(n - 1))
        out.append(PauliString(head + "Z"))
    return out


def is_maximal_abelian(generators: list[PauliString | str], n: int,
                       ambient: Subspace | None = None) -> bool:
    """Check that ``generators`` pairwise commute and are maximal.

    Maximality is relative to ``ambient``: no basis string carrying that
    tag lies outside the multiplicative closure of the generators while
    commuting with all of them.  With ``ambient=None`` the scan covers
    every non-identity string.  The generators themselves are not
    required to carry the ambient tag (commuting families used for the
    mixing sector legitimately contain block-diagonal strings such as
    ZZ).
    """
    gens = [_as_string(g) for g in generators]
    if not gens:
        raise ValidationError("empty generator list")
    for g in gens:
        if g.n != n:
            raise DimensionError(f"generator {g} has length {g.n}, expected {n}")
        if g.weight == 0:
            raise ValidationError("identity string is not a valid generator")
    for i, a in enumerate(gens):
        for b in gens[i + 1:]:
            if not commutes(a, b):
                return False
    closure = {"1" * n}
    frontier = {"1" * n}
    while frontier:
        new = set()
        for c in frontier:
            for g in gens:
                w = multiply(PauliString(c), g).string.letters
                if w not in closure:
                    new.add(w)
        closure |= new
        frontier = new
    for s in basis_strings(n):
        if ambient is not None and subspace_tag(s) is not ambient:
            continue
        if s.letters in closure:
            continue
        if all(commutes(s, g) for g in gens):
            return False
    return True


# ---------------------------------------------------------------------------
# Commuting-family elements (the exponents appearing in the factorization)


class CartanFamily(Enum):
    """Which commuting string family an exponent is written over: one of
    the three that the factorization emits.

    ``OUTER_X`` is the cosine-sine middle in its own frame: the diagonal
    strings with the last Z turned into X.  It is maximal abelian in the
    mixing sector, as the paper's :func:`outer_cartan_strings` is; the
    two are conjugate under block-diagonal frames.
    """

    OUTER_X = "outer_x"      # {1,Z}-strings ending in X (couples the last spin)
    DIAGONAL = "diagonal"    # {1,Z}-strings ending in Z
    MAXIMAL = "maximal"      # recursive maximal family; XX, YY, ZZ at n = 2

    def strings(self, n: int) -> list[PauliString]:
        """The family on ``n`` spins; ``OUTER_X`` and ``DIAGONAL`` are
        ordered by the mask of their leading letters."""
        return list(_family_order(self, n))


@functools.lru_cache(maxsize=None)
def _family_order(family: CartanFamily, n: int) -> dict[PauliString, int]:
    """Each string of a family on ``n`` spins mapped to its place in the
    canonical order; built, and checked to commute pairwise, once."""
    if family is CartanFamily.MAXIMAL:
        strings = maximal_abelian_strings(n)
    elif family is CartanFamily.OUTER_X:
        strings = [PauliString(s.letters[:-1] + "X") for s in diagonal_strings(n)]
    else:
        strings = diagonal_strings(n)
    for i, a in enumerate(strings):
        for b in strings[i + 1:]:
            if not commutes(a, b):
                raise ValidationError(f"strings {a} and {b} do not commute")
    return {s: k for k, s in enumerate(strings)}


@dataclass(frozen=True)
class CartanElement:
    """A real combination over one commuting family: ``sum_s coeffs[s] B_s``.

    The exponential ``exp(-i H)`` of such an element is what the
    factorization emits between local layers; because the family
    commutes, the exponential splits into one factor per string.

    A ``DIAGONAL`` or ``OUTER_X`` element on ``n >= 3`` spins may also
    carry Z strings of its leading ``n - 1`` spins (``"ZZ1"`` at
    ``n = 3``), which commute with the whole family: the factorization
    moves a two-spin leaf's free ``Z1 Z2`` phase into the layer beside
    it as one (see :mod:`kakpulse.kak`); one whose parity the parity
    network never holds is lowered by ladder
    (:func:`kakpulse.networks.lowering_route`).  The family itself, its
    :meth:`CartanFamily.strings`, does not change; :meth:`items` lists
    such strings after the family's, by their mask.

    The fields are read as the tree reader reads a commuting-evolution
    node, so the element's text reads back equal: ``n`` is an integer
    (``3.0`` is one), ``family`` a :class:`CartanFamily` or its value,
    and ``coeffs`` a dict from strings (or their letters) to finite
    real numbers, each held as a ``float``; a bool or a string is a
    :class:`ValidationError`.
    """

    n: int
    family: CartanFamily
    coeffs: dict[PauliString, float] = field(default_factory=dict)

    def __post_init__(self):
        n, family, coeffs = self.n, self.family, self.coeffs
        if type(n) is not int:
            n = _json_int(n, "commuting-evolution size n")
            object.__setattr__(self, "n", n)
        if not isinstance(coeffs, dict):
            raise ValidationError(
                f"commuting-evolution coefficients must be an object, "
                f"got {type(coeffs).__name__}")
        if type(family) is not CartanFamily:
            try:
                family = CartanFamily(family)
            except ValueError:
                raise ValidationError(
                    f"commuting family must be one of "
                    f"{tuple(f.value for f in CartanFamily)}, got {family!r}"
                ) from None
            object.__setattr__(self, "family", family)
        if not all(type(s) is PauliString and type(c) is float
                   and c - c == 0.0 for s, c in coeffs.items()):
            coeffs = {}
            for s, c in self.coeffs.items():
                if type(s) is not PauliString:
                    s = PauliString(s)
                coeffs[s] = _json_finite(c, f"coefficient of {s}",
                                         f"non-finite coefficient for {s}")
            object.__setattr__(self, "coeffs", coeffs)
        # the family's strings commute pairwise, checked once per family
        # and size, so membership is all an element needs
        order = _family_order(family, n)
        for s in coeffs:
            if s not in order and s not in _element_order(family, n):
                raise ValidationError(
                    f"string {s} is not in the {family.value} family for n={n}")

    def hamiltonian(self) -> np.ndarray:
        """Dense Hermitian realization of the element."""
        out = np.zeros((2 ** self.n, 2 ** self.n), dtype=complex)
        for s, c in self.coeffs.items():
            out += c * s.to_matrix()
        return out

    def items(self) -> list[tuple[PauliString, float]]:
        """Coefficients in the family's canonical string order."""
        order = _element_order(self.family, self.n)
        return sorted(self.coeffs.items(), key=lambda kv: order[kv[0]])


@functools.lru_cache(maxsize=None)
def _element_order(family: CartanFamily, n: int) -> dict[PauliString, int]:
    """:func:`_family_order`, then, for a ``DIAGONAL`` or ``OUTER_X``
    family on three or more spins, the Z strings of the leading spins by
    their mask (spin ``q`` is bit ``q - 1``)."""
    order = dict(_family_order(family, n))
    if family is not CartanFamily.MAXIMAL and n >= 3:
        for mask in range(1, 2 ** (n - 1)):
            order[z_string(mask, n)] = len(order)
    return order


def z_string(mask: int, n: int) -> PauliString:
    """The Z string on ``n`` spins of a parity ``mask``, spin ``q`` its
    bit ``q - 1``."""
    return PauliString("".join("Z" if mask >> q & 1 else "1" for q in range(n)))

