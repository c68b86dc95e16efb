"""Interval roots, their pairings, and c-matrix validity.

The root (i, j) stands for the dimension vector of the interval module on
vertices i+1..j of the linearly oriented quiver.  hom and ext between such
modules are 0 or 1, computable by endpoint comparisons, and their
difference is the Euler pairing.  The validity constraints on c-matrices
are phrased entirely in these pairings.
"""

from fractions import Fraction

from quiverperm import (Root, all_roots, euler_matrix, euler_pairing, ext,
                        hom, in_wall, root_to_vector, subroots,
                        validate_c_matrix)

n = 2
roots = all_roots(n)
print("roots of straight A_2 and their vectors:")
for r in roots:
    print(f"  {r} -> {root_to_vector(r, n)}")
print()

print("hom / ext tables (row acts on column):")
for name, fn in (("hom", hom), ("ext", ext)):
    print(f"  {name}:")
    for a in roots:
        row = " ".join(str(fn(a, b)) for b in roots)
        print(f"    {a}: {row}")
print()

print("Euler matrix and the pairing it induces:")
print(" ", euler_matrix(n))
for a, b in [(Root(0, 2), Root(1, 2)), (Root(0, 1), Root(1, 2))]:
    val = euler_pairing(root_to_vector(a, n), root_to_vector(b, n))
    print(f"  <{a}, {b}> = {val} = hom {hom(a, b)} - ext {ext(a, b)}")
print()

print("submodules of an interval are its suffixes:")
print("  subroots of b03:", [str(s) for s in subroots(Root(0, 3))])
print()

print("wall membership uses exact arithmetic, fractions included:")
x = (Fraction(1, 3), Fraction(0))
print(f"  {x} in wall of b02: {in_wall(x, Root(0, 2))}")
print(f"  (-1, 0) in wall of b02: {in_wall((-1, 0), Root(0, 2))}")
print()

print("validity catches rows that cannot coexist in a c-matrix:")
for c in [((1, 0), (0, 1)), ((1, 0), (1, 1)), ((1, 0), (0, -1))]:
    violations = validate_c_matrix(c)
    verdict = violations[0].kind if violations else "ok"
    print(f"  {c}: {verdict}")
