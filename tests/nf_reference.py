"""Brute-force references for ``graphs.normal_form`` and ``orbit_normal_form``.

Walks all n! relabellings of the internal vertices (swaps are implied by
sorting each pair) and keeps the lexicographically smallest flattened
sequence, with the sign-0 rule for a minimum reached with both swap
parities.  The library's pruned search must agree with it exactly, and its
orbit form with the minimum of this one over the sink permutations.
"""

from itertools import permutations

from tetraflow.graphs import KontsevichGraph, NormalForm, perm_sign


def brute_normal_form(g: KontsevichGraph) -> NormalForm:
    m, n = g.sink_count, g.internal_count
    targets = g.targets
    for a, b in targets:
        if a == b:
            return NormalForm(m, n, (), 0)
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
    return NormalForm(m, n, best, 0 if zero else (1 if best_parity == 0 else -1))


def brute_orbit_normal_form(g: KontsevichGraph) -> NormalForm:
    """``brute_normal_form`` minimized over all m! sink permutations.

    Each permutation attaining the minimum has the orbit sign sign(sigma)
    times its normal-form sign; the result's sign is 0 when the normal form
    is self-antisymmetric or when the minimum is attained with both signs.
    """
    m = g.sink_count
    best = None
    signs = set()
    for sigma in permutations(range(m)):
        nf = brute_normal_form(g.permute_sinks(sigma))
        if best is None or nf.encoding < best:
            best, signs = nf.encoding, set()
        if nf.encoding == best:
            signs.add(nf.sign * perm_sign(sigma))
    return NormalForm(m, g.internal_count, best, signs.pop() if signs in ({1}, {-1}) else 0)
