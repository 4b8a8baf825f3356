"""Regularisation of divergent words and the gamma-series maps.

Words starting with y but ending in y correspond to divergent sums or
integrals.  Writing H1 = H0[y] for either product assigns each word a
polynomial in T with admissible coefficients; the constant term is the
regularised value.  The two regularisations differ by the linear map rho
built from the exponential of the even zeta series, and the star/plain
comparison needs only the sine kernel pi-powers on top of that.
"""

import math

from mzvkit import NcPoly, mzv_num, reg_T, rho_apply, w_star, z_reg_num
from mzvkit.regularize import NumericPolyT, sin_correction

z = NcPoly.from_index

print("== polynomial decomposition ==")
print("reg_T(y, sh)        =", reg_T(NcPoly.from_str("y"), "sh"))
print("reg_T(yy, sh)       =", reg_T(NcPoly.from_str("yy"), "sh"))
print("reg_T(z2 z1, ast)   =", reg_T(z((2, 1)), "ast"))
print()

print("== regularised values at T = 0 ==")
v = z_reg_num(z((2, 1)), "ast")
print(f"zeta^ast(2,1)  = {v.value:.12f}   (= -2 zeta(3) = {-2 * mzv_num((3,)).value:.12f})")
v = z_reg_num(z((1, 1)), "ast")
print(f"zeta^ast(1,1)  = {v.value:.12f}   (= -zeta(2)/2)")
v = z_reg_num(z((1, 1)), "sh")
print(f"zeta^sh(1,1)   = {v.value:.12f}   (the two regularisations disagree here)")
print()

print("== rho sends the harmonic polynomial to the shuffle one ==")
r = rho_apply(NumericPolyT.monomial(2), "rho")
print("rho(T^2) =", r, "   (the constant is zeta(2) = %.12f)" % (math.pi**2 / 6))
print()

print("== the star comparison kernel is the sine series ==")
for n in (2, 3, 4):
    got = rho_apply(rho_apply(NumericPolyT.monomial(n), "rho_inv"), "rho_star")
    print(f"rho*(rho^-1(T^{n})) = {got}")
    print(f"   predicted      = {sin_correction(n)}")
print("Coefficients at T^n and T^(n-1) are exactly kept: only pi^2 powers below.")
print()

print("== integral-representation star regularisation ==")
print("w_star((1,1)) =", w_star((1, 1)), " ->  reg_T:", reg_T(w_star((1, 1)), "sh"))
