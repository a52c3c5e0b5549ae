"""Pure-Python term-dict kernels, generic over the coefficient ring.

A "terms" value is a dict mapping exponent tuples (one int per variable, negative
allowed for Laurent data) to nonzero coefficients of one ring: all `int` or all
`Fraction`.  Every function returns a new canonical dict: no zero coefficients,
values of the ring they came in (ints in, ints out; Fractions in, the same
Fractions as Fraction arithmetic gives).  This is the only kernel the package
runs: `Poly` arithmetic calls it on Fractions and
`vectorfields.iterated_bracket` on ints.  The jet engine, `vectorfields.JetTower`,
calls none of it: it runs its own product loop on packed integer keys.  The
committed ``_kernel_c.c`` implements the Fraction case of the same contract; the
package never imports it, and only the benchmark's per-call metrics and the
parity tests compile it.
"""

BACKEND = "python"


def add_terms(a, b):
    out = dict(a)
    for e, c in b.items():
        prev = out.get(e)
        if prev is None:
            out[e] = c
        else:
            s = prev + c
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def neg_terms(a):
    return {e: -c for e, c in a.items()}


def scale_terms(a, c):
    if not c:
        return {}
    return {e: c * v for e, v in a.items()}


def mul_terms(a, b):
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            prev = out.get(e)
            if prev is None:
                out[e] = ca * cb
            else:
                s = prev + ca * cb
                if s:
                    out[e] = s
                else:
                    del out[e]
    return out


def partial_terms(a, k):
    # distinct exponents with e_k != 0 stay distinct after e_k -> e_k - 1
    return {e[:k] + (e[k] - 1,) + e[k + 1:]: c * e[k] for e, c in a.items() if e[k]}


def derive_terms(components, a):
    """Sum of components[k] * d(a)/dx_k over all k."""
    out = {}
    for k, comp in enumerate(components):
        if not comp:
            continue
        p = partial_terms(a, k)
        if not p:
            continue
        for ea, ca in comp.items():
            for eb, cb in p.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                prev = out.get(e)
                if prev is None:
                    out[e] = ca * cb
                else:
                    s = prev + ca * cb
                    if s:
                        out[e] = s
                    else:
                        del out[e]
    return out
