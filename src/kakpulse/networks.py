"""GF(2) design of the chain parity networks that lower commuting families.

A ``DIAGONAL`` element on ``k`` spins is a sum of {1, Z} strings that all
contain ``Z_k``; an ``OUTER_X`` element is the same sum with ``X_k`` for
``Z_k``, lowered between two turns on spin ``k``.  Either is diagonal
after those turns, so a network of adjacent CNOTs can walk the parities
of the spins through every string: after some CNOTs, spin ``q`` holds
the parity ``rows[q-1]`` of the spins it started from, as a mask with
bit ``q - 1`` for spin ``q``, and each string is rotated once where the
network holds its parity.  A route is a tuple of ``(control, target)``
CNOTs in time order.

Each ``k`` has one route, :func:`full_route`, that holds every such parity
and ends in the identity, and a layer is lowered along a cut of it:

* **open** (:func:`open_route`): cut where the map is ``diag(A, 1)``,
  ``A`` on spins ``1..k-1`` and spin ``k`` left alone.  The
  factorization hands ``A`` to the neighbouring factor that acts next,
  which absorbs it as a change of its input basis, so the network need
  not return (the boundary absorption of Shende, Bullock & Markov, IEEE
  TCAD 25, 1000 (2006), App. A): 3, 10, 21, 43 and 90 CNOTs for a dense
  layer at ``k = 3..7``.
* **closed** (:func:`closed_route`): cut after the last nonzero string
  and returned to the identity by the shorter way: 6, 12, 22, 61 and
  110 CNOTs for a dense layer, used only when that is strictly fewer pi
  couplings than one ladder per string.

:func:`lowering_route` alone decides which route a layer takes; a layer
with a leading-spin Z string whose parity :func:`full_route` never holds
takes one ladder per string.  Every CNOT is one pi coupling.  This
module knows no matrices: :mod:`kakpulse.kak` reads the open cuts, their
end maps and :func:`layer_masks`, :mod:`kakpulse.pulses` the points where
a checked route holds each parity.
"""

from __future__ import annotations

import functools

from .errors import ValidationError
from .paulis import CartanElement, CartanFamily

# Commuting-family coefficients of at most this magnitude emit no gates.
TOL_COEFF = 1e-12

Route = tuple[tuple[int, int], ...]

ROUTES: dict[int, Route] = {
    3: ((1, 2), (2, 1), (1, 2)) + ((1, 2), (2, 1), (1, 2)),
    4: ((4, 3), (3, 4), (4, 3), (1, 2), (2, 1), (1, 2), (4, 3), (1, 2),
        (3, 4), (4, 3)) + ((2, 1), (1, 2)),
    5: ((5, 4), (4, 5), (4, 3), (3, 4), (1, 2), (2, 3), (1, 2), (2, 3),
        (5, 4), (4, 3), (5, 4), (4, 3), (1, 2), (2, 3), (5, 4), (1, 2),
        (2, 3), (3, 4), (4, 5), (4, 3), (5, 4)) + ((4, 3),),
    6: ((6, 5), (5, 4), (4, 5), (4, 3), (3, 4), (4, 5), (5, 4), (4, 3),
        (1, 2), (2, 3), (1, 2), (2, 3), (5, 4), (4, 3), (5, 4), (6, 5),
        (3, 2), (2, 3), (3, 4), (4, 3), (5, 4), (6, 5), (3, 4), (2, 1),
        (1, 2), (2, 3), (5, 4), (6, 5), (3, 2), (4, 3), (5, 4), (6, 5),
        (5, 4), (2, 3), (3, 4), (1, 2), (2, 1), (3, 2), (4, 3), (3, 4),
        (4, 5), (5, 4), (6, 5))
       + ((1, 2), (2, 3), (1, 2), (3, 2), (2, 1), (1, 2), (3, 4), (4, 3),
          (3, 2), (4, 5), (5, 4), (4, 3), (2, 3), (3, 4), (3, 2), (2, 3),
          (2, 1), (1, 2)),
    7: ((7, 6), (6, 5), (5, 4), (6, 5), (7, 6), (5, 4), (6, 5), (5, 6),
        (6, 5), (3, 4), (2, 3), (3, 4), (2, 3), (3, 4), (6, 5), (5, 4),
        (6, 5), (3, 4), (2, 3), (1, 2), (2, 3), (3, 4), (2, 3), (5, 4),
        (1, 2), (2, 3), (3, 4), (6, 5), (5, 4), (2, 3), (3, 4), (6, 5),
        (2, 3), (5, 4), (4, 5), (3, 4), (2, 3), (7, 6), (6, 5), (3, 4),
        (7, 6), (6, 5), (5, 4), (2, 3), (5, 6), (3, 4), (6, 5), (1, 2),
        (2, 3), (3, 4), (2, 3), (6, 7), (5, 4), (1, 2), (2, 3), (7, 6),
        (3, 4), (2, 3), (3, 4), (6, 5), (4, 5), (5, 4), (5, 6), (6, 5),
        (4, 3), (5, 4), (2, 3), (1, 2), (2, 3), (5, 4), (3, 2), (4, 3),
        (5, 4), (1, 2), (2, 3), (3, 2), (4, 3), (5, 4), (2, 1), (1, 2),
        (4, 3), (3, 2), (2, 3), (5, 4), (4, 3), (3, 4), (6, 5), (7, 6),
        (5, 6), (6, 7))
       + ((3, 2), (3, 4), (2, 3), (1, 2), (3, 4), (5, 6), (4, 5), (3, 4),
          (4, 3), (3, 2), (6, 5), (5, 6), (5, 4), (4, 5), (2, 3), (3, 4),
          (2, 1), (3, 2), (1, 2), (2, 3)),
}
"""Routes by spin count: an open part, then the shortest return of its
end map to the identity.

The open part (3, 10, 21, 43 and 90 CNOTs) comes from a beam search of
width 20,000 over adjacent-CNOT states (the parity rows, and the
parities containing spin ``k`` held so far on a spin or an adjacent
pair), ranked by parities held and then by the exact number of CNOTs
left to a map ``diag(A, 1)``.  Widths of 200,000 at ``k = 5`` and
300,000 at ``k = 6`` found nothing shorter, and 3 and 10 are optimal.
Of the shortest parts, the one with the fewest parities rotated on a
pair is kept, since a pair costs its angle in coupling time.  The return
(3, 2, 1, 18 and 20 CNOTs) is a shortest adjacent-CNOT word from the
part's :func:`end_rows` to the identity, by a breadth-first search from
both ends (a minute at ``k = 7``).  It holds no parity of spin ``k``
first, so the open cuts are those of the open part.  The 12 CNOTs at
``k = 4`` are the shortest closed network.  Neither search is part of
the package.
"""


@functools.lru_cache(maxsize=None)
def full_route(k: int) -> Route | None:
    """:data:`ROUTES` up to seven spins, from eight spin ``k`` as a bus
    around the route ``R`` on ``k - 1``: ``C(k,k-1) R C(k-1,k) C(k,k-1)
    R C(k,k-1) C(k-1,k) C(k,k-1)``, 226 CNOTs at ``k = 8``."""
    if k in ROUTES or k < 3:
        return ROUTES.get(k)
    inner = full_route(k - 1)
    return (((k, k - 1),) + inner + ((k - 1, k), (k, k - 1)) + inner
            + ((k, k - 1), (k - 1, k), (k, k - 1)))


def nonzero_letters(element: CartanElement) -> tuple[str, ...]:
    """Letters of the strings that emit gates: those with a coefficient
    above :data:`TOL_COEFF`, in canonical family order."""
    return tuple(s.letters for s, c in element.items() if abs(c) > TOL_COEFF)


def end_rows(route: Route, k: int) -> tuple[int, ...]:
    """The parity each spin holds after ``route``: ``rows[q-1]`` for
    spin ``q``."""
    rows = [1 << q for q in range(k)]
    for control, target in route:
        rows[target - 1] ^= rows[control - 1]
    return tuple(rows)


def leaves_last_spin(rows: tuple[int, ...]) -> bool:
    """Whether a map is ``diag(A, 1)``: spin ``k`` holds itself and no
    other spin holds it."""
    last = 1 << (len(rows) - 1)
    return rows[-1] == last and all(r < last for r in rows[:-1])


def check_route(route, element: CartanElement) -> None:
    """Raise :class:`ValidationError` unless ``element`` is a
    ``DIAGONAL`` or ``OUTER_X`` element on ``k >= 3`` spins and ``route``
    a tuple of adjacent ``(control, target)`` CNOTs on spins ``1..k``
    that ends in ``diag(A, 1)`` and holds every nonzero string's parity."""
    k = element.n
    if k < 3 or element.family is CartanFamily.MAXIMAL:
        raise ValidationError(
            f"a {element.family.value} element on {k} spins takes no route")
    for cnot in route:
        if not (isinstance(cnot, tuple) and len(cnot) == 2
                and type(cnot[0]) is type(cnot[1]) is int
                and 1 <= cnot[0] <= k and 1 <= cnot[1] <= k
                and abs(cnot[0] - cnot[1]) == 1):
            raise ValidationError(
                f"route step {cnot!r} is not a CNOT on adjacent spins of 1..{k}")
    fault = _route_fault(route, k, nonzero_letters(element))
    if fault is not None:
        raise ValidationError(fault)


@functools.lru_cache(maxsize=4096)
def _route_fault(route: Route, k: int, letters: tuple[str, ...]) -> str | None:
    """Why :func:`check_route` refuses ``route``, whose steps it has
    checked, for an element on ``k`` spins whose nonzero strings are
    ``letters``, or None.  The steps are pairs of ints, so the verdict
    depends on their values alone."""
    if not leaves_last_spin(end_rows(route, k)):
        return f"route does not leave spin {k} alone at its end"
    points = parity_points(route, k)
    for s in letters:
        if parity_image(s) not in points:
            return f"route {route} never holds the parity of {s}"
    return None


@functools.lru_cache(maxsize=None)
def parity_points(route: Route, k: int) -> dict[int, tuple[int, int, bool]]:
    """Where ``route`` holds each parity: ``mask -> (step, site,
    on_pair)``.

    After ``step`` CNOTs, spin ``q`` holds ``rows[q-1]`` (``Z_q``
    conjugated back through the CNOTs is ``Z`` on that mask) and the pair
    ``(q, q+1)`` holds the xor of its two rows.  A parity is rotated on
    the first single spin that ever holds it, and otherwise on the first
    pair.
    """
    rows = [1 << q for q in range(k)]
    single: dict[int, tuple[int, int, bool]] = {}
    pair: dict[int, tuple[int, int, bool]] = {}
    for step in range(len(route) + 1):
        for q in range(1, k + 1):
            single.setdefault(rows[q - 1], (step, q, False))
        for q in range(1, k):
            pair.setdefault(rows[q - 1] ^ rows[q], (step, q, True))
        if step < len(route):
            control, target = route[step]
            rows[target - 1] ^= rows[control - 1]
    return {**pair, **single}


@functools.lru_cache(maxsize=None)
def parity_image(letters: str) -> int:
    """The mask of the parity a ``DIAGONAL`` or ``OUTER_X`` string
    rotates, read off its letters: spin ``q`` is bit ``q - 1``.  The last
    letter is Z, or the X that the turn on the last spin makes a Z."""
    return sum(1 << q for q, c in enumerate(letters) if c != "1")


def ladder_pi_count(letters: str) -> int:
    """pi couplings of the ladder that moves one string onto an adjacent
    pair and back.

    For weight ``w >= 2`` on sites ``s_1 < ... < s_w`` the ladder walks
    the leftmost letter across each of the ``s_w - s_1 + 1 - w`` gaps
    (two pi couplings each) and absorbs it into its neighbour ``w - 2``
    times (one each), then undoes all of it.
    """
    sites = [q for q, c in enumerate(letters) if c != "1"]
    if len(sites) < 2:
        return 0
    gaps = sites[-1] - sites[0] + 1 - len(sites)
    return 2 * (2 * gaps + len(sites) - 2)


def _stop(k: int, pattern: tuple[str, ...]) -> int | None:
    """The step after which :func:`full_route` has rotated every string
    of ``pattern``, or None when ``k`` has no route, ``pattern`` is empty
    or the route never holds one of its parities."""
    seq = full_route(k)
    points = {} if seq is None else parity_points(seq, k)
    held = [points.get(parity_image(s)) for s in pattern]
    return None if not held or None in held else max(p[0] for p in held)


@functools.lru_cache(maxsize=4096)
def closed_route(k: int, pattern: tuple[str, ...]) -> Route | None:
    """The closed network for the nonzero strings ``pattern``, or None
    when the per-string ladders need no more pi couplings or the full
    route never holds a string's parity.

    :func:`full_route` runs until the last string's rotation step, then
    returns by the shorter of its rest and the CNOTs applied so far in
    reverse.
    """
    stop, seq = _stop(k, pattern), full_route(k)
    if stop is None:
        return None
    back = min(seq[stop:], seq[:stop][::-1], key=len)
    if stop + len(back) >= sum(map(ladder_pi_count, pattern)):
        return None
    return seq[:stop] + back


def closed_pi_count(k: int, pattern: tuple[str, ...]) -> int:
    """pi couplings of the closed lowering: the network or the ladders."""
    seq = closed_route(k, pattern)
    return sum(map(ladder_pi_count, pattern)) if seq is None else len(seq)


@functools.lru_cache(maxsize=4096)
def open_route(k: int, pattern: tuple[str, ...]) -> Route | None:
    """The open route for ``pattern``, or None when it needs no fewer pi
    couplings than :func:`closed_pi_count` or the full route never holds
    a string's parity.

    :func:`full_route` is cut at the first step, from its last rotation on,
    where its map is ``diag(A, 1)``.
    """
    stop, seq = _stop(k, pattern), full_route(k)
    if stop is None:
        return None
    cut = next(j for j in range(stop, len(seq) + 1)
               if leaves_last_spin(end_rows(seq[:j], k)))
    if cut >= closed_pi_count(k, pattern):
        return None
    return seq[:cut]


def lowering_route(element: CartanElement,
                   route: Route | None = None) -> Route | None:
    """The route a layer is lowered along: its recorded open ``route``,
    otherwise the :func:`closed_route` of its nonzero strings, otherwise
    None, one ladder per string (always for ``MAXIMAL``)."""
    if route is not None or element.family is CartanFamily.MAXIMAL:
        return route
    return closed_route(element.n, nonzero_letters(element))


def layer_masks(element: CartanElement,
                route: Route | None = None) -> tuple[int | None, int | None]:
    """The Z masks by which a layer, lowered along its
    :func:`lowering_route`, takes the ``Z1 Z2`` phase of the factor right
    after it and of the factor right before it; None for a side whose
    parity the route holds on no single spin by its last rotation, where
    the phase would cost a coupling, and for both sides of a layer
    lowered by ladders.

    The layer is ``P exp(-1j*H)``, with ``P`` the route's end map, so a
    phase after it is ``Z1 Z2`` carried back through ``P``: the xor of
    the parities that spins 1 and 2 end holding.  A phase before it
    enters ``H`` as ``Z1 Z2`` itself.  Either commutes with ``H``, and a
    single spin holding its parity turns it as a z rotation."""
    route = lowering_route(element, route)
    if route is None:
        return None, None
    return _phase_masks(route, element.n, nonzero_letters(element))


@functools.lru_cache(maxsize=4096)
def _phase_masks(route: Route, k: int,
                 letters: tuple[str, ...]) -> tuple[int | None, int | None]:
    """:func:`layer_masks` along ``route``, which holds every string of
    ``letters``: it is checked or closed."""
    points = parity_points(route, k)
    stop = max((points[parity_image(s)][0] for s in letters), default=0)
    rows = end_rows(route, k)

    def held(mask: int) -> int | None:
        point = points.get(mask)
        return mask if point and not point[2] and point[0] <= stop else None

    return held(rows[0] ^ rows[1]), held(0b011)
