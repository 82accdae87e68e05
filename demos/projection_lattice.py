"""Projections on K^3 and their lattice: join, meet, complement, order."""

from jspec import (
    FieldContext,
    Matrix,
    Projection,
    identity_projection,
    rank_one,
    zero_projection,
)

K = FieldContext(2)
r = K.sqrt_d


def show(label, p):
    print(f"  {label:<26} rank {p.rank}")


print("three lines in K^3:")
p = rank_one((1, 0, 0), K)
q = rank_one((1, 1, 0), K)
s = rank_one((1, r, 0), K)
show("P = span{e1}", p)
show("Q = span{(1,1,0)}", q)
show("S = span{(1,r,0)}", s)

print("\nall three lie in the same plane, so pairwise joins agree:")
plane = p.join(q)
show("P v Q", plane)
print(f"  P v Q == P v S:           {p.join(q) == p.join(s)}")
print(f"  S <= P v Q:               {s.leq(plane)}")

print("\nmeets of distinct lines are zero:")
show("P ^ Q", p.meet(q))
print(f"  P ^ Q == 0:               {p.meet(q).is_zero()}")

print("\ncomplement flips rank and order:")
pc = p.complement()
show("I - P", pc)
print(f"  P <= I - Q is {p.leq(q.complement())} "
      f"(P and Q are not orthogonal)")
print(f"  P orthogonal to e2-line:  "
      f"{p.is_orthogonal_to(rank_one((0, 1, 0), K))}")

print("\nbounded lattice, exactly:")
top = identity_projection(3, K)
bottom = zero_projection(3, K)
print(f"  P v (I - P) == I:         {p.join(pc) == top}")
print(f"  P ^ (I - P) == 0:         {p.meet(pc) == bottom}")

print("\nprojections built from a spanning set (columns):")
a = Matrix([[1, 1], [0, 1], [0, 0]], K)
t = Projection(a)
show("span of two columns", t)
print(f"  same plane as P v Q:      {t == plane}")
print("  matrix entries are exact scalars, no rounding anywhere:")
for row in t.matrix.rows:
    print("   ", [str(x) for x in row])
