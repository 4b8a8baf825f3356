"""The cyclic sum combinations as exact truncated t-series.

The t-adic star value of an index is a power series whose coefficients
are word polynomials.  The cyclic-sum combination of those series
collapses, exactly, to binomially shifted copies of the plain cyclic-sum
polynomials - an identity in H1[[t]] that this demo checks coefficient by
coefficient, along with its cyclic-class refinement and the index-space
reduction used for the non-star version.
"""

from mzvkit import (
    CyclicClass,
    verify_class_csf_hat,
    verify_csf_hat,
    verify_index_identity,
    w_csf,
    w_star_hat,
)
from mzvkit.tseries import abc_split

print("== the two-sided star series of (2) ==")
s = w_star_hat((2,), 3)
for e in sorted(s.coeffs):
    print(f"  t^{e}: {s.coeffs[e]}")
print()

print("== plain cyclic-sum polynomial ==")
print("w_csf((2,))  =", w_csf((2,)))
print("w_csf((1,1)) =", w_csf((1, 1)), "  (all-ones indices collapse to a chain)")
print()

print("== the hatted expansion, exactly ==")
for k in ((2,), (1, 2), (1, 1, 2), (2, 3)):
    rep = verify_csf_hat(k, 3)
    print(f"  index {k}: equal = {rep.equal}")
print()

print("== cyclic-class form with the A/B/C splice split ==")
al = CyclicClass.of((1, 2))
rep = verify_class_csf_hat(al, 3)
parts = abc_split(al, 3)
print(f"  class {al}: expansion equal = {rep.equal}")
print(f"  A telescopes: {parts.checks['telescoped-A'].equal}")
print(f"  B is the class splice sum: {parts.checks['B-vs-class-csf'].equal}")
print(f"  C contracts by Chu-Vandermonde: {parts.checks['chu-vandermonde-C'].equal}")
print()

print("== index-space reduction for the non-star formula ==")
for name in ("lemma112", "prop1", "prop2", "prop3", "csf_reduction"):
    rep = verify_index_identity(name, (1, 2, 1), t_order=2)
    print(f"  {name:14s} on (1,2,1): equal = {rep.equal}")
