"""The odd-characteristic construction on GF(25), plus hull statistics.

Translates the eight nontrivial 3-torsion points by two of the three
rational 2-torsion points, giving a [16,8,9] iso-dual MDS code.  A seeded
sampler then maps out how the hull dimension behaves under rescaling.
"""

from ellcode import (ConstructionInput, Curve, FieldSpec, PairSelection,
                     construct, find_scaling_with_hull, sample_scaling_hulls)

f25 = FieldSpec.from_string("p=5,m=2,mod=2,4,1")
curve = Curve.from_string(f25, "0,0,0,0,1")

cert = construct(ConstructionInput(
    curve, 8, 2, torsion_choice=(1, 2),
    pair_selection=PairSelection("torsion", r=3)))

print(f"[{cert.n},{cert.k},{cert.min_distance}] code on {curve}")
print(f"  distance method: {cert.min_distance_method} "
      f"(25^8 codewords are out of brute-force range; the subset-sum")
print("   certifier settles MDS exactly instead)")
print(f"  hull dimension: {cert.hull_dim}")

code = cert.code()
hist = sample_scaling_hulls(code, trials=300, seed=0)
print(f"\nhull histogram over 300 uniform rescalings: {hist}")
hist2 = sample_scaling_hulls(code, trials=300, seed=0, block=2)
print(f"hull histogram over 300 pair-constant rescalings: {hist2}")

u2 = find_scaling_with_hull(code, 2, trials=3000, seed=0, block=2)
print(f"\na pair-constant rescaling with hull exactly 2: {tuple(u2.entries)}")
print(f"  check: hull(u.C) = {code.scale(u2).hull_dim()}")
print("\nevery sampled hull stays <= 2; no rescaling of this code has been")
print("observed to exceed it (sampled evidence, not an exhaustive claim)")
