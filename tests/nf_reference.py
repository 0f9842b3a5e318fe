"""Brute-force reference for ``graphs.normal_form``.

Walks all n! relabellings of the internal vertices (swaps are implied by
sorting each pair) and keeps the lexicographically smallest flattened
sequence, with the sign-0 rule for a minimum reached with both swap
parities.  The library's pruned search must agree with it exactly.
"""

from itertools import permutations

from tetraflow.graphs import KontsevichGraph, NormalForm


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
