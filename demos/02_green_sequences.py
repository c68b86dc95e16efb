"""Enumerating maximal green sequences.

A green sequence always mutates at a green vertex; it is maximal when it
ends with every vertex red.  For the straight A_n quiver the counts are
small enough to enumerate outright: 1, 2, 9, 98 for n = 1..4.
"""

from quiverperm import count_mgs, enumerate_mgs, mgs_census

print("all maximal green sequences for n = 3:")
for r in enumerate_mgs(3):
    print(f"  {r.sequence}  word {r.word.display:<22} "
          f"permutation {r.permutation.cycle_string()}")
print()

print("census (count, length histogram, permutation histogram):")
for key, value in mgs_census(3).items():
    print(f"  {key}: {value}")
print()

print("an independent breadth-first count agrees with the listing:")
for n in (1, 2, 3, 4):
    enumerated = len(enumerate_mgs(n))
    counted = count_mgs(n)
    print(f"  n={n}: enumerated {enumerated}, counted {counted}, "
          f"equal {enumerated == counted}")
