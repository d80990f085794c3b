"""Entanglement survives arbitrarily bad delivery, if you prepare weakly.

The delivered concurrence is 2[s w - (1-s) w^2] with w = a sqrt(1-a^2), so it
stays positive whenever s exceeds w/(1+w).  Bell pairs (w = 1/2) die below
s = 1/3, but weakly entangled preparations survive any s > 0.  This script
maps the survival threshold, finds the optimal amplitude for each s, and
evaluates n E_F(1/n), the total E_F of n pairs delivered at s = 1/n.
"""

import numpy as np

from entmix import (
    PrepParams,
    concurrence_xstate,
    ef_max_asymptotic,
    eisert_lower_bound,
    optimize_prep,
    survival_threshold,
)

print("survival threshold s*(a): entanglement survives iff s > s*(a)")
for a in (0.01, 0.1, 0.3, 1 / np.sqrt(2), 0.9):
    print(f"  a = {a:8.6f}:  s* = {survival_threshold(a):.6f}")
print("  (for small a the threshold approaches a itself: prepare with a < s)")

print("\neven at s = 0.001 a suitable preparation keeps entanglement alive:")
s = 1e-3
c = concurrence_xstate(PrepParams(s / 2, s))
print(f"  C(a = s/2, s = {s}) = {c:.3e} > 0")

print("\noptimal preparation per success probability:")
print("      s        a*        C_max       E_F max")
for s in (0.001, 0.01, 0.05, 0.2, 0.4, 0.5, 0.7, 1.0):
    opt = optimize_prep(s)
    print(f"  {s:7.3f}  {opt.a_star:.6f}  {opt.c_max:.6e}  {opt.ef_max:.6e}")
print("below s = 1/2 the best amplitude is small (roughly s/2); above it the")
print("Bell preparation a = 1/sqrt2 wins outright.")

print("\nsmall-s closed form vs the numeric optimum (ratio -> 1 as s -> 0):")
for s in (0.05, 0.01, 0.001):
    ratio = ef_max_asymptotic(s) / optimize_prep(s).ef_max
    print(f"  s = {s:6.3f}:  asymptote/optimum = {ratio:.4f}")

print("\ntotal E_F of n pairs delivered at s = 1/n from the optimal preparation")
print("(not a distillable-entanglement bound: E_D <= E_F for every state):")
for n in (2, 3, 10, 100):
    print(f"  n = {n:4d}:  n * E_F_max(1/n) = {eisert_lower_bound(n):.6e}")
