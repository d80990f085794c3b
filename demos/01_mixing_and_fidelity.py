"""How unreliable delivery scrambles a prepared pair.

A source prepares the pure state a|00> + sqrt(1-a^2)|11> and ships one qubit
to each of two distant customers.  A shipment only arrives intact with
probability s; otherwise the customers hold uncorrelated qubits drawn from
the state's marginals.  Their state of knowledge is the mixing-map image

    s * rho + (1 - s) * Tr_B[rho] (x) Tr_A[rho].

This script walks through the map, its compact closed form, and the fidelity
cost of the scrambling.
"""

import numpy as np

from entmix import PrepParams, apply_map, fidelity, psi_a
from entmix.mixing import xstate_fields

np.set_printoptions(precision=4, suppress=True)

a, s = 0.6, 0.5
p = PrepParams(a, s)

print(f"prepared state (a = {a}):")
print(psi_a(a).real)

rho = apply_map(psi_a(a), s)
print(f"\nafter delivery with success probability s = {s}:")
print(rho.real)

*d, t = map(float, xstate_fields(a, s))
print("\nthe image is an X state: only a diagonal and one coherence survive")
print(f"  diagonal  d = {np.round(d, 4)}")
print(f"  coherence t = {t:.4f}   (the entanglement-carrying entry)")
gap = max(np.max(np.abs(np.diag(rho) - d)), abs(rho[0, 3] - t), abs(rho[3, 0] - t))
print(f"  closed form matches the 4x4 diagonal and corner to {gap:.1e}")

print(f"\nfidelity with the intended state: {fidelity(p):.4f}")
print("fidelity of a few preparations as delivery degrades:")
print("     s    a=0.2   a=1/sqrt2   a=0.95")
for s_k in (1.0, 0.8, 0.5, 0.2, 0.05):
    row = [fidelity(PrepParams(ak, s_k)) for ak in (0.2, 1 / np.sqrt(2), 0.95)]
    print(f"  {s_k:4.2f}   {row[0]:.4f}    {row[1]:.4f}     {row[2]:.4f}")

print("\nthe maximally entangled preparation (a = 1/sqrt2) is always the most")
print("fragile: the fidelity minimum over a sits exactly there for every s.")
