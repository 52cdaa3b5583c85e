"""Certifying three-forms and computing exact Hodge duals.

A three-form on R^7 with 14-dimensional stabilizer induces a metric of
signature (7,0) or (3,4) through B(v,w) = (1/6)(v -| phi)^(w -| phi)^phi.
This walk-through certifies the two model forms and the Witt-frame form
and prints their exact metric data.
"""

from g2aa import KForm, certify_g2, phi_model, witt_phi
from g2aa.g2 import NotG2Error, witt_frame_from_adapted

for eps, name in ((-1, "compact model"), (1, "split model")):
    phi = phi_model(eps)
    s = certify_g2(phi)
    print(f"{name}: eps = {s.eps}, frame = {s.frame_kind}")
    print(f"  metric diagonal: {[str(s.metric[i, i]) for i in range(7)]}")
    print(f"  star(phi) = {s.star_phi()}")
    print()

print("Witt frame: the split form adapted to a degenerate hyperplane")
frame = witt_frame_from_adapted()
print(f"  phi in Witt coordinates: {frame.to_witt(phi_model(1))}")
s = certify_g2(witt_phi())
print(f"  certified: eps = {s.eps}, frame = {s.frame_kind}")
print(f"  volume coefficient: {s.vol.coefficient(1, 2, 3, 4, 5, 6, 7)}")
print(f"  Gram matrix rows:")
for i in range(7):
    print("   ", [str(x) for x in s.metric.row(i)])
print()

print("A decomposable form is rejected:")
try:
    certify_g2(KForm.basis(7, 1, 2, 3))
except NotG2Error as exc:
    print(f"  NotG2: {exc}")

print()
print("Scaling can leave the exact field: for 2*phi, c = 2^(7/3) is not in Q(sqrt2)")
s2 = certify_g2(phi_model(-1).scale(2))
print(f"  exact metric: {s2.is_exact}; c^9 = det B = {s2.det_b}")
print(f"  g~ = sign(det B) B = |c| g, diagonal: {[str(s2.scaled_metric[i, i]) for i in range(7)]}")
