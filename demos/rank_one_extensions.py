"""Rebuilding a map's action on all projections from its action on lines.

A map's value on a higher-rank projection is pinned down by its values on
rank-one pieces in two ways: as the join of line images over any basis of
the range, and as the sum over an orthogonal decomposition.  The join route
never depends on which decomposition was picked; the sum route only exists
when the images are again orthogonal.
"""

from jspec import (
    Automorphism,
    FieldContext,
    Matrix,
    OrthogonalityError,
    Projection,
    apply_map,
    extend_join,
    extend_sum,
    make_induced,
    make_unitary_conj,
)

K = FieldContext(2)
r = K.sqrt_d

plane = Projection(Matrix([[1, 0], [r, 1], [0, 1]], K))
swap = make_unitary_conj(Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]], K))
shear = make_induced(Automorphism.ID, Matrix([[1, 1, 0], [0, 1, 0],
                                              [0, 0, 1]], K))

print("a rank-2 plane in K^3, pushed through two maps:")
for name, m in (("unitary swap", swap), ("shear", shear)):
    direct = apply_map(m, plane)
    joined = extend_join(m, plane)
    print(f"  {name:<13} extend_join == direct apply: {direct == joined}")

print("\nthe join is decomposition-independent (a mixer remixes the range")
print("basis into a second rank-one decomposition):")
mixer = Matrix([[1, 2], [1, 3]], K)
remixed = extend_join(shear, plane, mixer=mixer)
print(f"  mixer [[1,2],[1,3]] gives the unmixed join: "
      f"{remixed == extend_join(shear, plane)}")
try:
    extend_join(shear, plane, mixer=Matrix([[1, 1], [1, 1]], K))
except ValueError as err:
    print(f"  singular mixer is refused: {err}")

print("\nthe sum route needs orthogonal images:")
total = extend_sum(swap, plane)
print(f"  unitary swap: extend_sum == extend_join: "
      f"{total == extend_join(swap, plane)}")
try:
    extend_sum(shear, plane)
except OrthogonalityError as err:
    print(f"  shear: {err}")
print("  (the shear skews the plane's orthogonal basis, so only the join")
print("   extension exists for it)")
