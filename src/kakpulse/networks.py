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

Two kinds of route:

* **closed**: the chain network ``N(k-1)``, cut after the last nonzero
  string and returned to the identity by the shorter way.  It is used
  only when it needs strictly fewer pi couplings than one ladder per
  string.
* **open**: a constant route at each ``k = 3..7`` that ends in a linear
  map ``diag(A, 1)``: ``A`` on spins ``1..k-1``, spin ``k`` left alone.
  The factorization hands ``A`` to the neighbouring factor that acts
  next, which absorbs it as a change of its input basis, so the network
  need not return (the boundary absorption of Shende, Bullock & Markov,
  IEEE TCAD 25, 1000 (2006), App. A).  Open routes take 3, 10, 21, 43
  and 90 CNOTs at ``k = 3..7``, against 6, 18, 42, 90 and 186 for
  ``N(k-1)``; 3 and 10 are optimal (an exact breadth-first search), the
  rest come from the beam search recorded at :data:`OPEN_ROUTES`.

Every CNOT is one pi coupling.  This module knows no matrices:
:mod:`kakpulse.kak` reads the open routes and their end maps,
:mod:`kakpulse.pulses` the points where a route holds each parity.
"""

from __future__ import annotations

import functools

from .errors import ValidationError
from .paulis import CartanElement

# Commuting-family coefficients of at most this magnitude emit no gates.
TOL_COEFF = 1e-12

Route = tuple[tuple[int, int], ...]

OPEN_ROUTES: dict[int, Route] = {
    3: ((1, 2), (2, 1), (1, 2)),
    4: ((4, 3), (3, 4), (4, 3), (1, 2), (2, 1), (1, 2), (4, 3), (1, 2),
        (3, 4), (4, 3)),
    5: ((5, 4), (4, 5), (4, 3), (3, 4), (1, 2), (2, 3), (1, 2), (2, 3),
        (5, 4), (4, 3), (5, 4), (4, 3), (1, 2), (2, 3), (5, 4), (1, 2),
        (2, 3), (3, 4), (4, 5), (4, 3), (5, 4)),
    6: ((6, 5), (5, 4), (4, 5), (4, 3), (3, 4), (4, 5), (5, 4), (4, 3),
        (1, 2), (2, 3), (1, 2), (2, 3), (5, 4), (4, 3), (5, 4), (6, 5),
        (3, 2), (2, 3), (3, 4), (4, 3), (5, 4), (6, 5), (3, 4), (2, 1),
        (1, 2), (2, 3), (5, 4), (6, 5), (3, 2), (4, 3), (5, 4), (6, 5),
        (5, 4), (2, 3), (3, 4), (1, 2), (2, 1), (3, 2), (4, 3), (3, 4),
        (4, 5), (5, 4), (6, 5)),
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
        (5, 6), (6, 7)),
}
"""Open routes by spin count.

Found by a beam search over adjacent-CNOT states, each the parity rows of
the spins and the set of parities containing spin ``k`` held so far (on a
spin or an adjacent pair).  States rank by parities held, then by the
exact number of CNOTs left to reach a map ``diag(A, 1)``: a breadth-first
search over the map's coset of that subgroup, which column ``k`` of the
map and the last row of its inverse fix.  Once every parity is held the
route ends by that shortest return.  Width 20,000 (seconds at ``k = 5``,
under half a minute at ``k = 7``); widths of 200,000 at ``k = 5`` and
300,000 at ``k = 6`` found no shorter route.  Among routes of the least
length, the one with the fewest parities rotated on a pair is kept, since
a pair costs its angle in coupling time.  ``k = 3`` is a swap of spins 1
and 2, and ``k = 4`` ends in rows x2, x1+x2, x3, x4; at ``k = 5`` the map
moves spin 4 (spin 3 holds x3+x4).  The search is not part of the
package: it takes seconds to minutes.
"""


def nonzero_letters(element: CartanElement) -> tuple[str, ...]:
    """Letters of the strings that emit gates: those with a coefficient
    above :data:`TOL_COEFF`, in canonical family order."""
    return tuple(s.letters for s, c in element.items() if abs(c) > TOL_COEFF)


@functools.lru_cache(maxsize=None)
def chain_network(k: int) -> Route:
    """The closed parity network on spins ``1..k``.

    ``N(j)`` acts on spins ``1..j+1`` with spin ``j+1`` as the bus:
    ``C(j+1,j) N(j-1) C(j,j+1) C(j+1,j) N(j-1) C(j+1,j) C(j,j+1)
    C(j+1,j)``, with ``N(1)`` empty; it returns every spin to its start.
    A ``k``-spin family uses ``N(k-1)``: 6, 18, 42, 90 and 186 CNOTs at
    ``k = 3..7``.
    """
    def net(j: int) -> list[tuple[int, int]]:
        if j < 2:
            return []
        bus, inner = j + 1, net(j - 1)
        return ([(bus, j)] + inner + [(j, bus), (bus, j)] + inner
                + [(bus, j), (j, bus), (bus, j)])
    return tuple(net(k - 1))


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


def check_route(route, k: int) -> None:
    """Raise :class:`ValidationError` unless ``route`` is a tuple of
    adjacent ``(control, target)`` CNOTs on spins ``1..k`` that ends in a
    map ``diag(A, 1)``."""
    if not isinstance(route, tuple):
        raise ValidationError(f"a route is a tuple of CNOTs, got {route!r}")
    for cnot in route:
        if not (isinstance(cnot, tuple) and len(cnot) == 2
                and all(type(q) is int and 1 <= q <= k for q in cnot)
                and abs(cnot[0] - cnot[1]) == 1):
            raise ValidationError(
                f"route step {cnot!r} is not a CNOT on adjacent spins of 1..{k}")
    if not leaves_last_spin(end_rows(route, k)):
        raise ValidationError(f"route does not leave spin {k} alone at its end")


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


def _stop(route: Route, k: int, pattern: tuple[str, ...]) -> int:
    """The step after which ``route`` has rotated every string."""
    points = parity_points(route, k)
    return max(points[parity_image(s)][0] for s in pattern)


@functools.lru_cache(maxsize=4096)
def closed_route(k: int, pattern: tuple[str, ...]) -> Route | None:
    """The closed network for the nonzero strings ``pattern``, or None
    when the per-string ladders need no more pi couplings.

    The network runs until the last string's rotation step, then returns
    by the shorter of the rest of :func:`chain_network` and the CNOTs
    applied so far in reverse.
    """
    seq = chain_network(k)
    stop = _stop(seq, k, pattern)
    back = min(seq[stop:], seq[:stop][::-1], key=len)
    if stop + len(back) >= sum(map(ladder_pi_count, pattern)):
        return None
    return seq[:stop] + back


def closed_pi_count(k: int, pattern: tuple[str, ...]) -> int:
    """pi couplings of the closed lowering: the network or the ladders."""
    route = closed_route(k, pattern) if pattern else None
    if route is None:
        return sum(map(ladder_pi_count, pattern))
    return len(route)


@functools.lru_cache(maxsize=4096)
def open_route(k: int, pattern: tuple[str, ...]) -> Route | None:
    """The open route for ``pattern``, or None when there is none at
    ``k`` or it needs no fewer pi couplings than :func:`closed_pi_count`.

    The constant route of :data:`OPEN_ROUTES` is cut at the first step,
    from its last rotation on, where its map is ``diag(A, 1)``.
    """
    route = OPEN_ROUTES.get(k)
    if route is None or not pattern:
        return None
    cut = next(j for j in range(_stop(route, k, pattern), len(route) + 1)
               if leaves_last_spin(end_rows(route[:j], k)))
    if cut >= closed_pi_count(k, pattern):
        return None
    return route[:cut]
