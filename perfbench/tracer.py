"""Per-layer tracing by rebinding psmt's public names for one traced phase.

``Tracer.install`` replaces each listed function or method with a wrapper
that counts calls and, for spans, records self time: the span's duration
minus the part covered by spans it caused.  Field arithmetic is counted,
never timed, so its time stays in the layer that asked for it.  Functions
are rebound in their defining module and in every loaded psmt module that
imported them by name (``psmt.protocols.perfect.correct_errors`` and the
like); ``uninstall`` puts every original back.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute, layer name, "span" | "count")
HOOKS = [
    ("psmt.field", "FieldElement.__add__", "field.elem_ops", "count"),
    ("psmt.field", "FieldElement.__sub__", "field.elem_ops", "count"),
    ("psmt.field", "FieldElement.__mul__", "field.elem_ops", "count"),
    ("psmt.field", "FieldElement.__truediv__", "field.elem_ops", "count"),
    ("psmt.field", "FieldElement.__neg__", "field.elem_ops", "count"),
    ("psmt.field", "FieldElement.__pow__", "field.elem_ops", "count"),
    ("psmt.field", "FieldElement.inv", "field.elem_ops", "count"),
    ("psmt.field", "FieldSpec.__eq__", "field.spec_eq", "count"),
    ("psmt.field", "FieldSpec._build_tables", "field.table_build", "span"),
    ("psmt.sharing", "share", "sharing.share", "span"),
    ("psmt.sharing", "reconstruct", "sharing.reconstruct", "span"),
    ("psmt.sharing", "detect_errors", "sharing.detect_errors", "span"),
    ("psmt.sharing", "correct_errors", "sharing.correct_errors", "span"),
    ("psmt.sharing", "oracle_decode", "sharing.oracle_decode", "span"),
    ("psmt.authcodes", "auth", "authcodes", "span"),
    ("psmt.authcodes", "auth_linear", "authcodes", "span"),
    ("psmt.authcodes", "auth_quad", "authcodes", "span"),
    ("psmt.authcodes", "verify", "authcodes", "span"),
    ("psmt.authcodes", "LinearKey.random", "authcodes", "span"),
    ("psmt.authcodes", "QuadKey.random", "authcodes", "span"),
    ("psmt.randomness", "Randomness.__init__", "randomness.streams", "count"),
    ("psmt.randomness", "Randomness.draw", "randomness.draws", "count"),
    ("psmt.randomness", "TracingRandomness.draw", "randomness.trace_draw", "span"),
    ("psmt.netsim", "PathNetwork.end_round", "netsim.end_round", "span"),
    ("psmt.netsim", "HyperNet.transmit", "netsim.transmit", "span"),
    ("psmt.netsim", "HyperNet.multicast", "netsim.transmit", "span"),
    ("psmt.netsim", "majority_of", "netsim.majority_of", "count"),
    ("psmt.topology", "max_disjoint_paths", "topology.max_disjoint_paths", "span"),
    ("psmt.topology", "min_vertex_separator", "topology.min_vertex_separator", "span"),
    ("psmt.topology", "is_k_separable", "topology.is_k_separable", "span"),
    ("psmt.topology", "strongly_k_connected", "topology.strongly_k_connected", "span"),
    ("psmt.topology", "weakly_k_connected", "topology.weakly_k_connected", "span"),
    ("psmt.topology", "connectivity_hierarchy", "topology.connectivity_hierarchy", "span"),
    ("psmt.topology", "strong_witness_path", "topology.strong_witness_path", "count"),
    ("psmt.privacy", "view_distance", "privacy.view_distance", "span"),
]


class Tracer:
    """Call counts and self times per layer, kept in memory."""

    def __init__(self):
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.total_s: dict = defaultdict(float)
        self._stack: list[float] = []   # child time accumulated per open span
        self._saved: list = []          # (owner, attribute, original)
        self.missing: list[str] = []

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.total_s.clear()

    # -- wrappers ------------------------------------------------------------

    def counted(self, name: str, func):
        calls = self.calls

        def wrapper(*args, **kw):
            calls[name] += 1
            return func(*args, **kw)

        wrapper.__wrapped__ = func
        return wrapper

    def span(self, name: str, func):
        """Wrap ``func`` so each call is a span of layer ``name``."""
        stack, calls, self_s, total_s = self._stack, self.calls, self.self_s, self.total_s
        clock = time.perf_counter

        def wrapper(*args, **kw):
            stack.append(0.0)
            start = clock()
            try:
                return func(*args, **kw)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                calls[name] += 1
                total_s[name] += elapsed
                self_s[name] += elapsed - children
                if stack:
                    stack[-1] += elapsed

        wrapper.__wrapped__ = func
        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, mode in HOOKS:
            module = sys.modules.get(module_name)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or member not in vars(owner):
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = vars(owner)[member]
            make = self.span if mode == "span" else self.counted
            if isinstance(original, classmethod):
                replacement = classmethod(make(name, original.__func__))
            else:
                replacement = make(name, original)
            self._rebind(owner, member, original, replacement)
            if not owner_name:
                # re-exports: psmt modules that imported the function by name
                for other in list(sys.modules.values()):
                    mod_name = getattr(other, "__name__", "")
                    if other is module or not mod_name.startswith("psmt"):
                        continue
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._rebind(other, key, original, replacement)

    def _rebind(self, owner, key, original, replacement) -> None:
        self._saved.append((owner, key, original))
        setattr(owner, key, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)
