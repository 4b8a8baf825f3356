"""Numeric evaluation: Hölder convolution, raw partial sums and the cyclic
sum formulas.

Admissible values come from Hölder convolution, with a proven truncation
bound far below double precision.  A plain partial sum of the nested
series up to a cutoff of 10^6 is still ~1e-6 off.  On top sit the t-adic
series variants and the numeric cyclic-sum checks.
"""

import math

from mzvkit import EvalConfig, mzv_num, raw_partial_sum, verify_csf, zeta_hat_num

cfg = EvalConfig()

print("== zeta(2) ==")
exact = math.pi**2 / 6
raw = raw_partial_sum((2,), N=cfg.cutoff)
val = mzv_num((2,))
print(f"zeta(2) exact        = {exact:.15f}")
print(f"plain partial sum    = {raw:.15f}   (off by {abs(raw - exact):.2e})")
print(f"Hölder convolution   = {val.value:.15f}   (off by {abs(val.value - exact):.2e},"
      f" reported error {val.err:.2e})")
print()

print("== star values are contraction sums ==")
v = mzv_num((1, 2), star=True)
print(f"zeta*(1,2) = {v.value:.12f}  = 2 zeta(3) = {2 * mzv_num((3,)).value:.12f}")
print()

print("== t-adic series variants of (2) ==")
for variant in ("ast", "sh", "star_KY"):
    s = zeta_hat_num((2,), variant, 2)
    coeffs = ", ".join(f"t^{e}: {s.coefficient(e).value:+.8f}" for e in range(3))
    print(f"  {variant:8s} {coeffs}")
print("(the three star variants agree modulo zeta(2): compare star_KY against star_sh)")
print()

print("== numeric cyclic sum formulas ==")
for which, k in (("mzsv", (1, 2)), ("tsmzsv", (2,)), ("tsmzv_exact", (1, 1))):
    rep = verify_csf(which, k, order=2, cfg=cfg)
    print(f"  {which:12s} {k}: residuals {[f'{r:.1e}' for r in rep.residuals]} pass={rep.passed}")
print()

print("The all-ones trace: for k = (1,1,1) the exact t-adic combination")
print("equals -(1 + (-1)^4) * 3 * zeta(4) instead of vanishing:")
rep = verify_csf("tsmzv_exact", (1, 1, 1), order=1, cfg=cfg)
print(f"  residuals {[f'{r:.1e}' for r in rep.residuals]} pass={rep.passed}")
