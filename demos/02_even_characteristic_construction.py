"""The even-characteristic construction on GF(16), end to end.

Builds the [8,4,5] iso-dual MDS code from four translated inverse pairs,
shows the scaling vector that carries the code onto its dual, and then
rescales to a self-dual and an LCD code.
"""

from ellcode import (ConstructionInput, Curve, FieldSpec, PairSelection,
                     construct, lcd_transform, selfdual_transform,
                     verify_certificate)

f16 = FieldSpec.from_string("p=2,m=4,mod=1,1,0,0,1")
curve = Curve.from_string(f16, "1,8,0,0,9")

cert = construct(ConstructionInput(
    curve, 4, 1, pair_selection=PairSelection("pairs_x", pairs_x=(5, 1, 2, 7))))

print(f"[{cert.n},{cert.k},{cert.min_distance}] code on {curve}")
print(f"  evaluation points: {cert.points}")
print(f"  G = {cert.k - 1}*O + Q1 with Q1 = {cert.g_divisor[1][0]}")
print(f"  scaling vector v = {cert.scaling_v}")
print(f"  iso-dual identity verified: {cert.iso_dual}")
print(f"  some k-subset sums to sum(G): "
      f"{'yes' if cert.mds_subset_count else 'no'} (no = MDS)")
print(f"  hull dimension: {cert.hull_dim} (zero = already LCD)")
print(f"  re-verification from the certificate alone: "
      f"{'ok' if verify_certificate(cert) == [] else 'FAILED'}")

u, selfdual = selfdual_transform(cert)
print(f"\nself-dual rescaling u = {tuple(u.entries)} (u_i^2 = v_i)")
print(f"  hull of u.C: {selfdual.hull_dim()} = k, so u.C is self-dual")

u_hat, lcd = lcd_transform(cert)
print(f"\nLCD rescaling u_hat = {tuple(u_hat.entries)}")
print(f"  hull of u_hat.C: {lcd.hull_dim()}")

print("\none certificate, three hull regimes: 0 (LCD), between, k (self-dual)")
