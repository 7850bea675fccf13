"""Entanglement-assisted quantum codes from the classical constructions.

Each [n, k, d] iso-dual MDS code with hull dimension ell yields an
[[n, k - ell, d; n - k - ell]]_q MDS quantum code.  Rescaling the same
classical code to a different hull moves (k_q, c) without touching n, d.
"""

from ellcode import (ConstructionInput, Curve, FieldSpec, PairSelection,
                     construct1, construct2, derive, lcd_transform)
from ellcode.eaqecc import TABLE_COLUMNS, table_rows, derive_from_certificate
from ellcode.search import rows_to_csv

runs = [
    ("p=2,m=4,mod=1,1,0,0,1", "1,8,0,0,9", 1, 4, None, None),
    ("p=2,m=5,mod=1,0,1,0,0,1", "1,1,0,0,6", 1, 10, None, None),
    ("p=2,m=6,mod=1,1,0,1,1,0,1", "1,8,0,0,9", 1, 18, None, None),
    ("p=5,m=2,mod=2,4,1", "0,0,0,0,1", 2, 8, (1, 2), 3),
    ("p=7,m=2,mod=3,6,1", "0,0,0,1,3", 2, 14, (1, 2), 15),
]

items = []
for field, curve_s, construction, k, torsion, r in runs:
    spec = FieldSpec.from_string(field)
    curve = Curve.from_string(spec, curve_s)
    selection = PairSelection("torsion", r=r) if r else PairSelection()
    inp = ConstructionInput(curve, k, construction, torsion_choice=torsion,
                            pair_selection=selection)
    cert = construct1(inp) if construction == 1 else construct2(inp)
    params = derive_from_certificate(cert)
    items.append((cert, params))
    print(f"q={spec.q:>3}  [{cert.n},{cert.k},{cert.min_distance}] hull "
          f"{cert.hull_dim} -> {params.label()} mds={params.mds}")
    if cert.hull_dim > 0:
        # an LCD rescaling of the same code raises k_q and c back to n-k
        lcd = lcd_transform(cert)
        if lcd is not None:
            p0 = derive(cert.n, cert.k, cert.min_distance, 0, spec.q)
            items.append((cert, p0))
            print(f"{'':6}LCD rescaling of the same code -> {p0.label()}")

print("\nCSV table:")
print(rows_to_csv(table_rows(items), TABLE_COLUMNS))
