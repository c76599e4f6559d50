"""In-memory spans around the calls the CLI makes into each layer.

Spans are recorded only from the benchmark: :func:`install` replaces the
names ``kakpulse.cli`` binds from the lower layers (and kak's public
steps as ``kakpulse.kak`` binds them) with timing wrappers, and
:func:`uninstall` puts the originals back.  A name a later version of
the program no longer has is skipped and reports zero calls.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

LAYERS = ("cli", "gates", "linalg", "kak", "pulses", "simulate")

# (owner, attribute, span name).  An owner is a module or "module:Class".
# The span name's prefix is the layer that owns the work.
TRACED = (
    ("kakpulse.cli", "decompose", "kak.decompose"),
    ("kakpulse.cli", "flatten", "kak.flatten"),
    ("kakpulse.cli", "tree_to_json_dict", "kak.tree_json"),
    ("kakpulse.cli", "synthesize_pulses", "pulses.synthesize"),
    ("kakpulse.cli", "pulse_count", "pulses.summary"),
    ("kakpulse.cli", "total_coupling_time", "pulses.summary"),
    ("kakpulse.cli", "gate_list_unitary", "simulate.gate_list"),
    ("kakpulse.cli", "pulse_program_unitary", "simulate.pulse_program"),
    ("kakpulse.cli", "distance", "simulate.distance"),
    ("kakpulse.cli", "check_unitary", "linalg.check"),
    ("kakpulse.cli", "matrix_from_json_dict", "linalg.matrix_io"),
    ("kakpulse.cli", "gate_list_to_json", "gates.json"),
    ("kakpulse.cli", "gate_list_from_json", "gates.json"),
    ("kakpulse.cli:PulseProgram", "to_json_dict", "pulses.json"),
    ("kakpulse.cli:PulseProgram", "from_json_dict", "pulses.json"),
    ("kakpulse.kak", "evaluate", "kak.evaluate"),
    ("kakpulse.kak", "split_last_qubit", "kak.split"),
    ("kakpulse.kak", "demultiplex", "kak.demultiplex"),
    ("kakpulse.kak", "two_spin_factors", "kak.two_spin"),
    ("kakpulse.kak", "cartan_evolution_gates", "pulses.rewrite"),
)

class Tracer:
    """Nested spans kept in memory as ``(request, parent, name, t0, t1)``;
    the caller sets ``request`` to identify the work the spans belong to."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.request = None
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (self.request, parent, name, t0, t1)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls, None) if cls else obj


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every traced name that exists; return what :func:`uninstall` needs."""
    saved = []
    for spec, attr, name in TRACED:
        owner = _resolve(spec)
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            continue
        wrapped = tracer.wrap(name, getattr(owner, attr))
        if isinstance(raw, classmethod):
            wrapped = staticmethod(wrapped)
        setattr(owner, attr, wrapped)
        saved.append((owner, attr, raw))
    return saved


def uninstall(saved: list[tuple]) -> None:
    for owner, attr, raw in reversed(saved):
        setattr(owner, attr, raw)


def aggregate(spans, scales: dict) -> dict:
    """Per span name: ``calls``, ``self`` and ``inclusive`` seconds.

    Self time is a span's duration minus its children's; inclusive time
    counts only the outermost span of a name, so recursion is not
    counted twice.  Each span's time is multiplied by its request's
    entry in ``scales``; spans of other requests are left out.
    """
    child = defaultdict(float)
    for req, parent, name, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = defaultdict(lambda: {"calls": 0, "self": 0.0, "inclusive": 0.0})
    for idx, (req, parent, name, t0, t1) in enumerate(spans):
        if req not in scales:
            continue
        row = out[name]
        row["calls"] += 1
        row["self"] += ((t1 - t0) - child[idx]) * scales[req]
        while parent >= 0 and spans[parent][2] != name:
            parent = spans[parent][1]
        if parent < 0:
            row["inclusive"] += (t1 - t0) * scales[req]
    return out
