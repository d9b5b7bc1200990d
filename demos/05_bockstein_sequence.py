"""Long exact sequences: the coefficient sequence Z/2 -> Z/4 -> Z/2
produces a connecting map in cohomology, and its degree 1 -> 2 component
is the classical nontrivial Bockstein for Z/2.

Run:  python3 demos/05_bockstein_sequence.py
"""

from realcech import standard
from realcech.cochains import RealComplex
from realcech.coefficients import make_standard
from realcech.les import CoefficientSES, ConnectingMap, long_exact_sequence_check

mu2 = make_standard("mu(2)_trivial")
mu4 = make_standard("mu(4)_trivial")

# 0 -> Z/2 --x2--> Z/4 --mod 2--> Z/2 -> 0 with trivial involutions
ses = CoefficientSES(mu2, mu4, mu2, i=[[2]], p=[[1]])

for g, name in ((standard.cyclic_group(2), "Z/2"),
                (standard.cyclic_group(4), "Z/4")):
    report = long_exact_sequence_check(ses, g, through_degree=2)
    print(f"sequence over {name}: exact = {report['exact']}")
    for slot in report["slots"]:
        detail = "" if "image_size" not in slot else \
            f" (image {slot['image_size']}, kernel {slot['kernel_size']})"
        print(f"  {slot['slot']}: {'ok' if slot['exact'] else 'FAIL'}{detail}")

# The connecting map degree 1 -> 2 over Z/2 is the Bockstein: it sends
# the generator to the generator, which is why the extension Z/4 of Z/2
# does not split.
z2 = standard.cyclic_group(2)
conn = ConnectingMap(ses, RealComplex(z2, mu2), RealComplex(z2, mu4),
                     RealComplex(z2, mu2), 1)
h1 = RealComplex(z2, mu2).cohomology(1)
h2 = RealComplex(z2, mu2).cohomology(2)
for coords in h1.all_classes():
    image = conn.apply_to_class(h1, h2, coords)
    print(f"connecting: class {coords} in HR^1 -> {image} in HR^2")
