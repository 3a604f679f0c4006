"""Statistical distance between adversary views for two candidate messages.

The distance is the L1 view distance sum_c |Pr[view(m0)=c] -
Pr[view(m1)=c]|, ranging from 0 (perfect privacy) to 2 (views disjoint,
e.g. a cleartext protocol); it equals twice the total variation.

The analyzer replays a protocol with a tracing randomness source shared
by every honest party, so each uniform draw gets a global index.  Every
traced element in the adversary's view (``field.TracedElement``) carries
its taint, the set of draw indices it can depend on, and its value as an
exact polynomial over the draws.  The tracer's ledger records every
*observed* draw, one whose value may have steered the run: the support
of any traced value read outside the traced operations (``value``,
``hash``, ``bool``, ``repr``, an ``==`` whose difference is not a
constant), any draw handed back as a raw int, and the taint of any
tainted element nested inside a plain leaf (a list, a dict, a
dataclass).  An ``==`` whose difference is a constant, as in an honest
tag check, observes nothing.

The view is read as ``AdversaryView.leaves()``, the same (path, leaf)
decomposition the Monte Carlo estimator keys its histograms on; an empty
tuple is a leaf.  When neither reference run observed a draw, every run
follows its reference, so the views are disjoint, exactly 2 apart, if a
path holds an untainted leaf in both runs with a different value in
each, or if the runs' sets of leaf paths differ.  After an observed draw
a branch on it may explain such a difference, and the analyzer falls
back to sampling.  So it does when a path is untainted in one run and
traced in the other: the structure of the view depends on the message.

``view_distance`` runs the protocol once with the message as the variable
``randomness.MESSAGE``: a traced element with m0's raw value that is never
drawn, pinned or enumerated.  When that run observes nothing about it (it
is in no observed set, no atom's support and no leaf nested in a plain
leaf), the run follows one control flow for every message, by the rule
above, and binding it to m0 and to m1 in every leaf gives both reference
traces; a leaf left without draws is plain, keyed by its constant.
Otherwise m0 and m1 are traced once each, as ``_enumerated_distance``
always does.  Then:

1. Twin leaves merge: a leaf with the field, taint and polynomial of an
   earlier leaf in both traces, such as a bundle relayed on several
   paths, always equals it and is dropped.  Then optimistic sampling
   (Barthe et al., EUROCRYPT 2015), to a fixpoint on both traces at once:
   a leaf ``c*r + e`` in a field of the analyzed order, with ``c`` a
   nonzero constant, ``r`` a uniform draw over that order that is not
   observed, in no opaque atom and in no other remaining leaf, and ``e``
   free of ``r``, is uniform and independent of the rest of the view; it
   is dropped.  A leaf drops only when the same draw eliminates it in
   both traces.
2. The remaining leaves split into independent components by taint.  A
   component with no atom and no observed draw is decided without a
   replay by a shift ``delta`` of its draws that carries the second
   trace onto the first: a translation is a bijection of the uniform
   draws (Barthe, Gregoire & Zanella-Beguelin, POPL 2009).  ``delta = 0``
   decides a component whose leaves are the same polynomials in both
   traces: distance 0.  A nonzero shift needs every draw of the
   component to be a field draw of the analyzed order and every leaf an
   element of that field; it solves the affine leaves,
   ``L_1 delta = c_0 - c_1`` over GF(q).  When every leaf is affine,
   ``c_m + M r`` with the same linear part M in both traces, its view is
   uniform on the coset ``c_m + col(M)``: the two cosets coincide when
   delta exists (distance 0) and are disjoint otherwise (distance 2);
   this covers leaves that repeat one polynomial, such as an echoed
   share.  Otherwise the distance is 0 when every leaf of the second
   trace at ``r + delta`` is its polynomial in the first, as substitution
   checks.  A component without such a shift is enumerated.
3. Every other component is enumerated exactly by pinning its draws to
   every assignment and re-running; each observed draw outside them is
   enumerated on its own axis, for stability.  Every such replay must
   reproduce the untainted leaves, keep each leaf outside the component
   at its reference value, each twin equal to its earlier leaf and each
   dropped leaf eliminable.  A bound m1 reference holds m0's leaf
   values, so a run of m1 replaces it first.

When the reference runs observe no draw, no branch depended on a draw,
so every run follows them and each leaf is its polynomial: steps 1 and
2 are exact.  Otherwise the checks of step 3, and a probe run with every
draw moved, test the factorization on the runs made, as plain
enumeration always has.

The distance then satisfies

    max_C d(C)  <=  d(view_m0, view_m1)  <=  min(2, sum_C d(C))

with equality on both sides when at most one component differs.  The
report's ``method`` is ``"symbolic"`` when nothing was enumerated,
``"exact"`` or ``"bounds"`` after enumeration, and ``"monte-carlo"`` when
a component's state space exceeds the limit, the random structure
depends on the message, or a replay breaks the factorization; ``fallback``
then names the reason and the bounds are the uncertified 0 .. 2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .field import FieldElement, TracedElement, peek, shift_poly
from .netsim import AdversaryView, leaf_key, unfold
from .randomness import MESSAGE, Randomness, TracingRandomness, derive_trial_seed
from .sharing import solve_raw


class _Unstable(Exception):
    """The traced view structure is not a stable function of the draws."""


@dataclass
class PrivacyReport:
    """Bounds on the L1 view distance between the two views (0 .. 2)."""

    method: str            # "symbolic", "exact", "bounds" or "monte-carlo"
    lower: float
    upper: float
    components: int = 0
    component_tv: list = dc_field(default_factory=list)
    samples: int = 0
    note: str = ""
    replays: int = 0               # protocol runs the analyzer made
    fallback: str | None = None    # why a certified analysis gave way to sampling

    @property
    def perfectly_private(self) -> bool:
        return self.method in ("symbolic", "exact", "bounds") and self.upper == 0.0


def shared_rng_runner(func, **fixed):
    """Adapt a protocol entry point to ``run(message, rng) -> AdversaryView``.

    The entry point's ``rng`` is the one source of every honest party, so
    one tracing stream covers all coins of the run.
    """
    def run(message, rng) -> AdversaryView:
        return func(message, rng=rng, **fixed).view

    return run


def _nested_taint(value) -> set:
    """Draws of the traced elements nested inside a plain leaf, at any
    depth: in containers and object attributes."""
    draws = set()

    def atom(v):
        if isinstance(v, TracedElement):
            draws.update(v.taint)

    unfold(value, atom)
    return draws


class _Trace:
    """One traced run, from its view's leaves: untainted leaves as (path,
    key), tainted ones as (path, taint), each tainted leaf's field, key,
    polynomial and ``_linear_draws`` by path, and the draws no eliminated
    leaf may hinge on (observed or in an atom)."""

    def __init__(self, leaves, rng: TracingRandomness):
        self.rng = rng
        self.plain, self.tainted = [], []
        self.fields, self.keys, self.polys = {}, {}, {}
        for path, value in leaves:
            taint = value.taint if isinstance(value, TracedElement) else None
            if taint:
                self.tainted.append((path, taint))
                self.fields[path] = value.spec
                self.keys[path] = leaf_key(value)
                self.polys[path] = value.poly
            else:
                # a tainted element inside a plain leaf (a list, a dict, a
                # dataclass) is shown to the adversary without a polynomial
                # of its own: its draws count as observed, so no leaf is
                # eliminated through them and pinning them is enumerated
                rng.observed |= _nested_taint(value)
                self.plain.append((path, leaf_key(value)))
        self.paths = [path for path, _ in self.tainted]
        self.linear = {path: _linear_draws(poly) for path, poly in self.polys.items()}
        self.blocked = set(rng.observed).union(*rng.atoms.values())


def _trace(run, message, seed, pinned=None) -> _Trace:
    rng = TracingRandomness(seed, pinned=dict(pinned or {}))
    return _Trace(run(message, rng).leaves(), rng)


def _bind_poly(spec, poly: dict, c: int) -> dict:
    """``poly`` with MESSAGE := c (the last variable of any monomial)."""
    out: dict = {}
    for mono, x in poly.items():
        if mono and mono[-1][0] == MESSAGE:
            x = spec.mul_raw(x, spec.pow_raw(c, mono[-1][1]))
            mono = mono[:-1]
        s = spec.add_raw(out.get(mono, 0), x)
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return out


def _bind(leaves, m) -> list:
    """The leaves of a run of the message variable, with MESSAGE := ``m``
    in every polynomial and out of every taint; a leaf left without draws
    is plain, a field element of its constant.  Traced leaves keep the
    run's raw values, which are its message's."""
    c, out = peek(m), []
    for path, value in leaves:
        if isinstance(value, TracedElement) and value.taint and MESSAGE in value.taint:
            spec, taint = value.spec, value.taint - {MESSAGE}
            poly = _bind_poly(spec, value.poly, c)
            value = (TracedElement(spec, peek(value), taint, poly, value.tracer) if taint
                     else FieldElement(spec, poly.get((), 0)))
        out.append((path, value))
    return out


def _references(run, m0, m1, seed, symbolic) -> tuple:
    """The reference traces of ``m0`` and ``m1``: a run of each message,
    or, on the symbolic path, both from one run with the message as the
    variable MESSAGE and ``m0``'s raw value.

    A run that observes nothing about MESSAGE (no observed set, no atom
    and no leaf nested in a plain leaf holds it) follows one control flow
    for every message, so binding MESSAGE gives each message's trace.  The
    traced leaves' keys are ``m0``'s, so ``m1``'s trace has none: a run of
    ``m1`` must stand in before one is read.  A run that observes MESSAGE
    gives way to a run of each message.
    """
    if symbolic:
        rng = TracingRandomness(seed)
        leaves = run(rng.message(m0), rng).leaves()
        ref0 = _Trace(_bind(leaves, m0), rng)
        if MESSAGE not in ref0.blocked:
            ref1 = _Trace(_bind(leaves, m1), rng)
            ref1.keys = None
            return ref0, ref1
    return _trace(run, m0, seed), _trace(run, m1, seed)


# ---------------------------------------------------------------------------
# optimistic sampling


def _linear_draws(poly: dict) -> set:
    """Draws r with poly = c*r + e, c a nonzero constant and e free of r."""
    count: dict = {}
    for mono in poly:
        for v, _ in mono:
            count[v] = count.get(v, 0) + 1
    return {mono[0][0] for mono in poly
            if len(mono) == 1 and mono[0][1] == 1 and mono[0][0] >= 0
            and count[mono[0][0]] == 1}


def _occurrences(polys: dict, paths) -> dict:
    """Variable -> the leaves among ``paths`` whose polynomial holds it."""
    occ: dict = {}
    for path in paths:
        for mono in polys[path]:
            for v, _ in mono:
                occ.setdefault(v, set()).add(path)
    return occ


def _remove(occ: dict, polys: dict, path) -> None:
    for mono in polys[path]:
        for v, _ in mono:
            occ[v].discard(path)


def _qualifies(trace: _Trace, occ: dict, path, r: int, order: int) -> bool:
    """The leaf at ``path`` is c*r + e, in a field of the analyzed order,
    with r a uniform draw over that order that nothing else left in the
    view, observed or atom depends on: the leaf is uniform and
    independent of the rest."""
    return (r in trace.linear[path] and r not in trace.blocked
            and trace.rng.moduli.get(r) == order == trace.fields[path].order
            and occ.get(r) == {path})


def _twins(traces) -> list:
    """Leaves that repeat an earlier leaf: the same taint, field and
    polynomial in both traces.  Returns (path, earlier path) pairs."""
    first: dict = {}   # taint -> the leaves kept so far
    twins: list = []
    for path, taint in traces[0].tainted:
        kept = first.setdefault(taint, [])
        for earlier in kept:
            if _repeats(traces, path, earlier):
                twins.append((path, earlier))
                break
        else:
            kept.append(path)
    return twins


def _repeats(traces, path, earlier) -> bool:
    return all(t.polys[path] == t.polys[earlier] and t.fields[path] == t.fields[earlier]
               for t in traces)


def _eliminate(traces, order: int, paths: list) -> list:
    """Optimistic sampling to a fixpoint on both traces at once, over the
    leaves at ``paths``.

    Returns the dropped (path, r) pairs in the order they were dropped;
    each qualified in both traces given the leaves still left then.
    """
    occs = [_occurrences(t.polys, paths) for t in traces]
    dropped: list = []
    gone: set = set()
    changed = True
    while changed:
        changed = False
        for path in paths:
            if path in gone:
                continue
            for r in sorted(traces[0].linear[path]):
                if all(_qualifies(t, occ, path, r, order)
                       for t, occ in zip(traces, occs)):
                    dropped.append((path, r))
                    gone.add(path)
                    for t, occ in zip(traces, occs):
                        _remove(occ, t.polys, path)
                    changed = True
                    break
    return dropped


class _Residual:
    """What step 1 leaves: the kept leaf paths, the twins as (path,
    earlier path) pairs, the dropped (path, r) pairs in drop order, and
    the field order the draws must range over."""

    def __init__(self, paths: list, twins: list, dropped: list, order: int):
        self.twins = twins
        self.dropped = dropped
        self.gone = {path for path, _ in twins + dropped}
        self.kept = [path for path in paths if path not in self.gone]
        self.order = order

    def check_dropped(self, trace: _Trace) -> None:
        """On a replay, every twin must still repeat its earlier leaf and
        every dropped leaf must still qualify, in order."""
        for path, earlier in self.twins:
            if not _repeats((trace,), path, earlier):
                raise _Unstable(f"leaf {path} no longer repeats leaf {earlier}")
        occ = _occurrences(trace.polys, self.kept + [path for path, _ in self.dropped])
        for path, r in self.dropped:
            if not _qualifies(trace, occ, path, r, self.order):
                raise _Unstable(f"leaf {path} no longer eliminates through draw {r}")
            _remove(occ, trace.polys, path)


def _shift_distance(refs, paths, comp: frozenset, observed: set, moduli: dict,
                    spec) -> float | None:
    """Exact distance of a component decided by a shift of its draws, as
    step 2 states: 0 for the zero shift, 0 or 2 for a coset, 0 for a
    translation; None when a condition fails or no shift carries one
    trace onto the other."""
    polys = [[t.polys[path] for path in paths] for t in refs]
    if comp & observed or any(v < 0 for ps in polys for poly in ps
                              for mono in poly for v, _ in mono):
        return None
    if polys[0] == polys[1]:
        return 0.0
    if (any(moduli.get(r) != spec.order for r in comp)
            or any(t.fields[path] != spec for t in refs for path in paths)):
        return None
    draws = sorted(comp)
    system, coset = [], True
    for p0, p1 in zip(*polys):
        linear = {mono: c for mono, c in p1.items() if mono}
        if all(len(mono) == 1 and mono[0][1] == 1 for mono in linear):
            system.append([linear.get(((r, 1),), 0) for r in draws]
                          + [spec.sub_raw(p0.get((), 0), p1.get((), 0))])
            coset = coset and linear == {mono: c for mono, c in p0.items() if mono}
        else:
            coset = False
    shift = solve_raw(spec, system, len(draws))
    if shift is None:
        return 2.0 if coset else None
    delta = {r: d for r, d in zip(draws, shift) if d}
    # a coset's leaves are all affine: the shift that solves them maps them
    if coset or all(shift_poly(spec, p1, delta) == p0 for p0, p1 in zip(*polys)):
        return 0.0
    return None


# ---------------------------------------------------------------------------
# enumeration of what is left


def _components(taints) -> list[frozenset]:
    """Connected components of draw indices under co-occurrence in a leaf."""
    parent: dict[int, int] = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for taint in taints:
        for idx in taint:
            parent.setdefault(idx, idx)
        first = next(iter(taint))
        for idx in taint:
            ra, rb = find(first), find(idx)
            if ra != rb:
                parent[rb] = ra
    groups: dict[int, set] = {}
    for idx in parent:
        groups.setdefault(find(idx), set()).add(idx)
    return sorted((frozenset(g) for g in groups.values()), key=min)


def _replay_key(trace: _Trace, ref: _Trace, comp: frozenset, res: _Residual) -> tuple:
    """Values of the kept leaves inside ``comp`` on a replay that pinned
    only ``comp``'s draws.

    Raises ``_Unstable`` when the replay leaves the factorization derived
    from the reference run ``ref``: the untainted leaves or the leaf paths
    changed, a leaf straddles the component, a kept leaf outside it moved
    off its reference value, or a dropped leaf no longer eliminates.
    """
    if trace.plain != ref.plain:
        raise _Unstable("deterministic view part changed under pinning")
    if trace.paths != ref.paths:
        raise _Unstable("view leaves changed under pinning")
    key = []
    for path, taint in trace.tainted:
        if path in res.gone:
            continue
        if taint & comp:
            if not taint <= comp:
                raise _Unstable("leaf taint straddles a component boundary")
            key.append((path, trace.keys[path]))
        elif trace.keys[path] != ref.keys[path]:
            raise _Unstable("a leaf outside the component changed under pinning")
    if res.gone:
        res.check_dropped(trace)
    return tuple(sorted(key, key=str))


def _l1(counts_a: dict, total_a: int, counts_b: dict, total_b: int) -> float:
    """Exact L1 distance between two empirical/enumerated counts."""
    keys = set(counts_a) | set(counts_b)
    acc = Fraction(0)
    for k in keys:
        acc += abs(Fraction(counts_a.get(k, 0), total_a)
                   - Fraction(counts_b.get(k, 0), total_b))
    return float(acc)


def _enumerate_component(run, message, seed, comp, moduli, ref, res):
    """Exact marginal of the component's leaves, uniform over its draws."""
    indices = sorted(comp)
    counts: dict = {}
    for assignment in itertools.product(*(range(moduli[i]) for i in indices)):
        trace = _trace(run, message, seed, dict(zip(indices, assignment)))
        key = _replay_key(trace, ref, comp, res)
        counts[key] = counts.get(key, 0) + 1
    return counts, math.prod(moduli[i] for i in indices)


def _probe(run, messages, seed, refs, comps, moduli, res) -> None:
    """The factorization must also hold at a second point, with every draw
    moved off its reference value."""
    probe = {idx: (idx * 7 + 3) % moduli[idx] for idx in moduli}
    for message, ref in zip(messages, refs):
        trace = _trace(run, message, seed, probe)
        if trace.plain != ref.plain:
            raise _Unstable("deterministic part changed at probe point")
        if trace.paths != ref.paths:
            raise _Unstable("view leaves changed at probe point")
        for path, taint in trace.tainted:
            if path not in res.gone and not any(taint <= comp for comp in comps):
                raise _Unstable("new taint pattern at probe point")
        res.check_dropped(trace)


def monte_carlo_distance(run, m0, m1, *, seed=0,
                         samples: int = 4000) -> PrivacyReport:
    """Plug-in total variation estimate over full canonical views.

    No certification: the result is an empirical estimate only, biased
    upward when views rarely repeat across samples.
    """
    def histogram(message, tag):
        counts: dict = {}
        for t in range(samples):
            rng = Randomness(derive_trial_seed((seed, "mc", tag), t))
            view = run(message, rng)
            key = view.canonical()
            counts[key] = counts.get(key, 0) + 1
        return counts

    est = _l1(histogram(m0, 0), samples, histogram(m1, 1), samples)
    return PrivacyReport("monte-carlo", 0.0, 2.0, samples=samples,
                         component_tv=[est],
                         note=f"plug-in estimate {est:.4f}")


def _fallback(run, m0, m1, seed, samples, reason: str, detail: str = "") -> PrivacyReport:
    report = monte_carlo_distance(run, m0, m1, seed=seed, samples=samples)
    report.fallback = reason
    report.note += detail
    return report


def view_distance(run, m0, m1, *, seed=0, limit: int = 200_000,
                  samples: int = 4000) -> PrivacyReport:
    """Bound the total variation distance between the adversary's views
    of transmissions of ``m0`` and of ``m1``.

    ``run(message, rng)`` must replay the protocol deterministically
    given the randomness source and return the adversary's view.
    ``limit`` caps the per-component state space enumerated exactly;
    beyond it (or if the trace is value-dependent) a Monte Carlo
    plug-in estimate over ``samples`` runs per message is returned.
    """
    return _counted(run, m0, m1, seed, limit, samples, symbolic=True)


def _enumerated_distance(run, m0, m1, *, seed=0, limit: int = 200_000,
                         samples: int = 4000) -> PrivacyReport:
    """``view_distance`` without step 1 (twins, elimination) and the
    shift test of step 2: every component is enumerated.  The reference
    the symbolic path is tested against."""
    return _counted(run, m0, m1, seed, limit, samples, symbolic=False)


def _counted(run, m0, m1, seed, limit, samples, symbolic) -> PrivacyReport:
    replays = 0

    def counted(message, rng):
        nonlocal replays
        replays += 1
        return run(message, rng)

    report = _view_distance(counted, m0, m1, seed, limit, samples, symbolic)
    report.replays = replays
    return report


def _view_distance(run, m0, m1, seed, limit, samples, symbolic) -> PrivacyReport:
    refs = _references(run, m0, m1, seed, symbolic)
    observed = refs[0].rng.observed | refs[1].rng.observed
    if refs[0].plain != refs[1].plain:
        if observed:
            return _fallback(run, m0, m1, seed, samples, "unstable",
                             "; deterministic view parts differ after an observed draw")
        other = dict(refs[1].plain)
        if any(path in other and other[path] != key for path, key in refs[0].plain):
            return PrivacyReport("exact", 2.0, 2.0,
                                 note="deterministic view parts differ")
    if refs[0].plain != refs[1].plain or refs[0].tainted != refs[1].tainted:
        leaf_paths = [{path for path, _ in ref.plain} | set(ref.paths) for ref in refs]
        if not observed and leaf_paths[0] != leaf_paths[1]:
            # every run has its reference's leaf paths: the views are disjoint
            return PrivacyReport("exact", 2.0, 2.0, components=1, component_tv=[2.0],
                                 note="view structures differ")
        # the random scaffolding itself depends on the message
        return _fallback(run, m0, m1, seed, samples, "message-dependent-structure")

    order = m0.spec.order
    twins = _twins(refs) if symbolic else []
    twinned = {path for path, _ in twins}
    dropped = (_eliminate(refs, order, [p for p in refs[0].paths if p not in twinned])
               if symbolic else [])
    res = _Residual(refs[0].paths, twins, dropped, order)
    kept = [(path, taint) for path, taint in refs[0].tainted if path not in res.gone]
    comps = _components([taint for _, taint in kept])
    moduli = {**refs[0].rng.moduli, **refs[1].rng.moduli}

    certified: dict = {}   # component -> its exact distance
    if symbolic:
        for comp in comps:
            paths = [path for path, taint in kept if taint <= comp]
            distance = _shift_distance(refs, paths, comp, observed, moduli, m0.spec)
            if distance is not None:
                certified[comp] = distance
    enumerated = [comp for comp in comps if comp not in certified]
    # observed draws outside every enumerated component: one axis each,
    # enumerated only to show that they leave the view alone
    axes = [frozenset((idx,)) for idx in sorted(observed - set().union(*enumerated))]

    for comp in enumerated + axes:
        size = math.prod(moduli[idx] for idx in comp)
        if size > limit:
            return _fallback(run, m0, m1, seed, samples, "component-too-large",
                             f"; component of size {size} exceeds limit {limit}")

    tv = dict(certified)
    if enumerated or axes:
        if refs[1].keys is None:   # replays compare the leaves with m1's keys
            refs = (refs[0], _trace(run, m1, seed))
        try:
            _probe(run, (m0, m1), seed, refs, comps, moduli, res)
            for comp in enumerated + axes:
                c0, t0 = _enumerate_component(run, m0, seed, comp, moduli, refs[0], res)
                c1, t1 = _enumerate_component(run, m1, seed, comp, moduli, refs[1], res)
                tv[comp] = _l1(c0, t0, c1, t1)
                if tv[comp] and comp in axes:
                    raise _Unstable("an observed draw outside every component"
                                    " moves the view")
        except _Unstable as exc:
            return _fallback(run, m0, m1, seed, samples, "unstable",
                             f"; exact analysis aborted: {exc}")

    component_tv = [tv[comp] for comp in comps]
    lower = max(component_tv, default=0.0)
    upper = min(2.0, sum(component_tv, 0.0))
    if symbolic and not enumerated and not axes:
        method = "symbolic"
    else:
        nonzero = sum(1 for d in component_tv if d > 0)
        method = "exact" if nonzero <= 1 else "bounds"
    return PrivacyReport(method, lower, upper, components=len(comps),
                         component_tv=component_tv)
