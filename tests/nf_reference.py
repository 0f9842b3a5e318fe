"""Brute-force references for the canonical forms of both graph kinds:
``graphs.normal_form`` and ``orbit_normal_form``, ``leibniz.leibniz_normal_form``
and ``leibniz_orbit_normal_form``.

Each walks every relabelling of the internal vertices (swaps and target
permutations are implied by sorting each tuple) and keeps the
lexicographically smallest sequence, with the sign-0 rule for a minimum
reached with both parities.  The library's pruned search must agree with it
exactly, and its orbit form with the minimum of this one over the sink
permutations.  Each returns (key, sign), the shape of the library's forms.
"""

from itertools import permutations

from tetraflow.graphs import KontsevichGraph, perm_sign, sink_images
from tetraflow.leibniz import LeibnizGraph


def brute_normal_form(g: KontsevichGraph) -> tuple[tuple, int]:
    m, n = g.sink_count, g.internal_count
    targets = g.targets
    for a, b in targets:
        if a == b:
            return (m, n, ()), 0
    best = None
    best_parity = 0
    zero = False
    for pi in permutations(range(n)):
        new_pairs = [(0, 0)] * n
        parity = 0
        for k in range(n):
            a, b = targets[k]
            if a >= m:
                a = m + pi[a - m]
            if b >= m:
                b = m + pi[b - m]
            if a > b:
                a, b = b, a
                parity ^= 1
            new_pairs[pi[k]] = (a, b)
        seq = tuple(t for pair in new_pairs for t in pair)
        if best is None or seq < best:
            best, best_parity, zero = seq, parity, False
        elif seq == best and parity != best_parity:
            zero = True
    return (m, n, best), 0 if zero else (1 if best_parity == 0 else -1)


def brute_orbit_normal_form(g: KontsevichGraph) -> tuple[tuple, int]:
    """``brute_normal_form`` minimized over all m! sink permutations.

    Each permutation attaining the minimum has the orbit sign sign(sigma)
    times its normal-form sign; the result's sign is 0 when the normal form
    is self-antisymmetric or when the minimum is attained with both signs.
    """
    return _least_over_sinks(brute_normal_form, g)


def brute_leibniz_normal_form(L: LeibnizGraph) -> tuple[tuple, int]:
    """Canonical encoding and sign of a Leibniz graph.

    Minimizes over wedge relabellings, signed per-wedge swaps, signed
    permutations of each Jacobiator's targets, and (sign-free) interchange
    of the Jacobiator copies; sign 0 for self-antisymmetric patterns.
    """
    m, w, j = L.sink_count, L.wedge_count, L.jac_count
    best = None
    best_parity = 0
    zero = False
    for rho in permutations(range(j)):
        for pi in permutations(range(w)):
            relabel = (*range(m), *(m + p for p in pi), *(m + w + r for r in rho))
            parity = 0
            new_wedges: list[tuple[int, int]] = [(0, 0)] * w
            for k in range(w):
                a, b = L.wedge_targets[k]
                a, b = relabel[a], relabel[b]
                if a > b:
                    a, b = b, a
                    parity ^= 1
                new_wedges[pi[k]] = (a, b)
            new_jacs: list[tuple[int, int, int]] = [(0, 0, 0)] * j
            for i in range(j):
                trip = [relabel[t] for t in L.jac_targets[i]]
                parity ^= perm_sign(trip) < 0
                new_jacs[rho[i]] = tuple(sorted(trip))
            enc = (tuple(new_wedges), tuple(new_jacs))
            if best is None or enc < best:
                best, best_parity, zero = enc, parity, False
            elif enc == best and parity != best_parity:
                zero = True
    sign = 0 if zero else (1 if best_parity == 0 else -1)
    return (m,) + best, sign


def brute_leibniz_orbit_normal_form(L: LeibnizGraph) -> tuple[tuple, int]:
    """``brute_leibniz_normal_form`` minimized over every sink image of
    ``L``, with the sign rule of ``brute_orbit_normal_form``."""
    return _least_over_sinks(brute_leibniz_normal_form, L)


def _least_over_sinks(form, x) -> tuple[tuple, int]:
    """The least (key, sign) of ``form`` over the sink images of ``x``, the
    sign 0 unless every image reaching the key gives one sign."""
    best = None
    signs = set()
    for sigma_sign, image in sink_images(x):
        key, sign = form(image)
        if best is None or key < best:
            best, signs = key, set()
        if key == best:
            signs.add(sign * sigma_sign)
    return best, signs.pop() if signs in ({1}, {-1}) else 0


def brute_minimizer_parities(g: KontsevichGraph, sinks: bool) -> tuple[tuple, list[int]]:
    """(least key, the parity of every labelling that reaches it) over
    every relabelling of the internal vertices of ``g`` and, with ``sinks``,
    every sink permutation, whose sign joins the parity; ``g`` has no double
    edge.  The labellings that reach the minimum are one of them composed
    with each automorphism of ``g``, so they count its automorphism group,
    and their parities split it into its even and its odd part."""
    m, n = g.sink_count, g.internal_count
    best, parities = None, []
    for sigma in permutations(range(m)) if sinks else [tuple(range(m))]:
        h = g.permute_sinks(sigma)
        for pi in permutations(range(n)):
            new_pairs = [(0, 0)] * n
            parity = perm_sign(sigma) < 0
            for k, (a, b) in enumerate(h.targets):
                a = a if a < m else m + pi[a - m]
                b = b if b < m else m + pi[b - m]
                if a > b:
                    a, b = b, a
                    parity ^= 1
                new_pairs[pi[k]] = (a, b)
            seq = tuple(t for pair in new_pairs for t in pair)
            if best is None or seq < best:
                best, parities = seq, []
            if seq == best:
                parities.append(int(parity))
    return (m, n, best), parities


def brute_leibniz_minimizer_parities(L: LeibnizGraph, sinks: bool) -> tuple[tuple, list[int]]:
    """``brute_minimizer_parities`` of a Leibniz graph: over wedge
    relabellings with their swaps, Jacobiator relabellings with the signs of
    their target orders and, with ``sinks``, sink permutations."""
    m, w, j = L.sink_count, L.wedge_count, L.jac_count
    best, parities = None, []
    for sigma_sign, image in sink_images(L) if sinks else [(1, L)]:
        for rho in permutations(range(j)):
            for pi in permutations(range(w)):
                relabel = (*range(m), *(m + p for p in pi), *(m + w + r for r in rho))
                parity = sigma_sign < 0
                new_wedges = [(0, 0)] * w
                for k, (a, b) in enumerate(image.wedge_targets):
                    a, b = relabel[a], relabel[b]
                    if a > b:
                        a, b = b, a
                        parity ^= 1
                    new_wedges[pi[k]] = (a, b)
                new_jacs = [(0, 0, 0)] * j
                for i, triple in enumerate(image.jac_targets):
                    trip = [relabel[t] for t in triple]
                    parity ^= perm_sign(trip) < 0
                    new_jacs[rho[i]] = tuple(sorted(trip))
                enc = (m, tuple(new_wedges), tuple(new_jacs))
                if best is None or enc < best:
                    best, parities = enc, []
                if enc == best:
                    parities.append(int(parity))
    return best, parities
