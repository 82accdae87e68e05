"""The map families that act on projection tuples.

Four kinds of lattice isomorphisms and what they do to joint spectra:
unitary conjugation, anti-unitary conjugation, and maps induced by a field
automorphism together with an invertible basis change.  All preserve pair
spectra on the nose; the wild ones can move spectra of longer tuples.
"""

from jspec import (
    Automorphism,
    FieldContext,
    Matrix,
    apply_map,
    classify_map,
    format_poly,
    make_induced,
    make_unitary_conj,
    pencil_poly,
    preserves_orthogonality,
    rank_one,
    zero_set_equal,
)

K = FieldContext(2)
r = K.sqrt_d
i = K.i

swap = make_unitary_conj(Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]], K))
anti = make_unitary_conj(Matrix.identity(3, K), anti=True)
shear = make_induced(Automorphism.ID, Matrix([[1, 1, 0], [0, 1, 0],
                                              [0, 0, 1]], K))
flip = make_induced(Automorphism.FLIP, Matrix.identity(3, K))

print("how each family moves the line through (1, i+r, 0):")
line = rank_one((1, i + r, 0), K)
for name, m in (("swap e1,e2 (unitary)", swap),
                ("entrywise conj (anti-unitary)", anti),
                ("shear e2 -> e1+e2 (induced id)", shear),
                ("sqrt(2) -> -sqrt(2) (induced flip)", flip)):
    image = apply_map(m, line)
    col = image.basis.colspace_basis().col(0)
    print(f"  {name:<33} -> span{{({', '.join(str(x) for x in col)})}}")

print("\nclassification by the Gram matrix of the basis change:")
for name, m in (("swap", swap), ("anti", anti), ("shear", shear),
                ("flip", flip)):
    print(f"  {name:<8} {classify_map(m).value:<22} "
          f"orthogonality preserved: {preserves_orthogonality(m)}")

print("\nevery family preserves every pair spectrum:")
p = rank_one((1, 0, 0), K).join(rank_one((0, 1, 0), K))
q = rank_one((1, r, 1), K)
before = pencil_poly([p, q])
for name, m in (("swap", swap), ("anti", anti), ("shear", shear),
                ("flip", flip)):
    after = pencil_poly([apply_map(m, p), apply_map(m, q)])
    print(f"  {name:<8} zero sets equal: {zero_set_equal(before, after)}")

print("\nbut the flip moves this triple's spectrum (details in "
      "rigidity_witness.py):")
triple = [rank_one((1, r, 0), K).join(rank_one((0, 0, 1), K)),
          rank_one((1, 0, 0), K), rank_one((1, 1, 0), K)]
before = pencil_poly(triple)
after = pencil_poly([apply_map(flip, p) for p in triple])
print(f"  pencil before: {format_poly(before.sf())}")
print(f"  pencil after:  {format_poly(after.sf())}")
print(f"  zero sets equal: {zero_set_equal(before, after)}")
