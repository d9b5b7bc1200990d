"""Why everything vanishes rationally: the counting-measure cutoff gives
an explicit contraction of the complex, so h.d + d.h is the identity
matrix and all higher cohomology with representation coefficients dies.

Run:  python3 demos/04_proper_vanishing.py
"""

import numpy as np

from realcech import standard
from realcech.coefficients import RealRepresentation
from realcech.proper import (RepComplex, canonical_cutoff,
                             homotopy_identity_matrices, vanishing_check,
                             verify_cutoff)

# The cutoff weights each object by 1 / #(arrows into it); the weighted
# source-sums over every target fiber are exactly 1.
z3 = standard.cyclic_group(3)
cut = canonical_cutoff(z3)
print("cutoff for Z/3:", cut, "- axioms hold:", verify_cutoff(z3, cut) == [])

p3 = standard.pair_groupoid(3)
print("cutoff for the pair groupoid on 3 objects:", canonical_cutoff(p3))

# Signature (1,1) fibers with the trivial action.
rep = RealRepresentation.trivial(z3, 1, 1)
cx = RepComplex(z3, rep)
for n in (1, 2, 3):
    lhs, rhs = homotopy_identity_matrices(cx, n)
    print(f"degree {n}: h.d + d.h == identity:", lhs == rhs,
          f"(matrix size {lhs.shape})")

print("\nvanishing report for Z/3 with Q(1,1):")
for row in vanishing_check(z3, rep, 3):
    print(" ", row)

# A genuinely twisted example: Z/4 with inversion acting by rotation on
# the plane, with the reflection diag(1,-1) as fiberwise involution.
z4i = standard.cyclic_group(4, "inversion")
rot = np.array([[0, -1], [1, 0]])
action = [np.linalg.matrix_power(rot, g).tolist() for g in range(4)]
rep4 = RealRepresentation(z4i, 1, 1, action, [[[1, 0], [0, -1]]])
print("\nrotation representation of Z/4 with inversion - valid:",
      rep4.validate() == [])
for row in vanishing_check(z4i, rep4, 3):
    print(" ", row)
