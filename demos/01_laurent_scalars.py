"""Tour of the exact coefficient ring Z[v, v^-1] with q = v^2.

Everything in the library is linear algebra over these scalars: integer
coefficients, exponents tracked in units of v so half-integer q-powers are
just odd v-powers, and divisions that must be exact or raise.
"""

from qcanon.qring import ONE, QScalar, exact_div, in_qinv_ideal, quantum_int
from qcanon.reference import solve_bar_equation

q = QScalar.q_power
v = QScalar.v_power


def quantum_factorial(n):
    """[n]! = [1] [2] ... [n]."""
    out = ONE
    for k in range(1, n + 1):
        out = out * quantum_int(k)
    return out


print("quantum integers [n] = (q^n - q^-n)/(q - q^-1):")
for n in range(5):
    print(f"  [{n}] = {quantum_int(n)}")

print("\nfactorials and binomials stay bar-invariant with integer entries:")
print(f"  [3]! = {quantum_factorial(3)}")
binom = exact_div(quantum_factorial(4), quantum_factorial(2) ** 2)
print(f"  [4 choose 2] = {binom}")
print(f"  bar([4 choose 2]) = {binom.bar()}")

print("\nthe bar involution negates exponents (q -> q^-1):")
p = q(2) + 3 * q(1) - 2
print(f"  p        = {p}")
print(f"  bar(p)   = {p.bar()}")

print("\nhalf powers of q print with braces:")
print(f"  v^3 = {v(3)}   v^-1 = {v(-1)}")

print("\ndivision is exact or loud:")
print(f"  [6]/[3] = {exact_div(quantum_int(6), quantum_int(3))}")
try:
    exact_div(q(1) + 1, quantum_int(2))
except Exception as exc:
    print(f"  ( [2] does not divide q + 1: {type(exc).__name__} )")

print("\nthe bar-equation kernel: given rho with bar(rho) = -rho, the unique")
print("p in q^-1 Z[q^-1] with p - bar(p) = rho is its negative-exponent part:")
rho = q(2) + q(1) - q(-1) - q(-2)
p = solve_bar_equation(rho)
print(f"  rho = {rho}")
print(f"  p   = {p}    (in the ideal: {in_qinv_ideal(p)})")
print(f"  p - bar(p) = {p - p.bar()}")
