"""Graded Betti tables by induced-subcomplex homology.

The table of a Stanley-Reisner quotient is assembled from exact homology
ranks of every induced subcomplex.  We print a few tables, extract their
shift vectors, and watch the linear-resolution dichotomy for initial
complexes of t-minor ideals: linear exactly at the maximal-minor case.
"""

import shellball as sb


def show(table: sb.BettiTable, label: str) -> None:
    print(f"{label}: p = {table.p}")
    for i in range(table.p + 1):
        row = table.row(i)
        cells = "  ".join(f"b[{i},{j}]={row[j]}" for j in sorted(row))
        print(f"  {cells}")
    mins, maxs = sb.shifts(table)
    print(f"  shifts m = {mins}, M = {maxs}\n")


square = sb.build_complex([{0, 1}, {1, 2}, {2, 3}, {0, 3}], 4)
show(sb.hochster_betti_table(square), "square (4-cycle)")

cx23, _ = sb.path_complex(sb.MinorSpec.diagonal(2, 3, 1))
sphere = sb.boundary_complex(cx23)
table = sb.hochster_betti_table(sphere)
show(table, "boundary sphere of the 2x3 minor ball")
print("self-duality of the sphere table: beta[i,j] == beta[p-i, n-j]:")
print(" ", all(table.beta(3 - i, 6 - j) == b for (i, j), b in table.entries.items()), "\n")

print("linear-resolution dichotomy on the 3x4 grid:")
for r in (1, 2):
    cx, _ = sb.path_complex(sb.MinorSpec.diagonal(3, 4, r))
    m = sb.smallest_nonface_size(sb.f_vector(cx))
    tab = sb.hochster_betti_table(cx)
    ok, reason = sb.linear_resolution_reason(tab, m)
    print(f"  r={r}: generated in degree {m}; linear resolution: {ok} ({reason})")

print("\ncanonical generator degrees vs minimal inside faces (2x3 ball):")
degrees = sb.canonical_generator_degrees(sb.hochster_betti_table(cx23), 6, 4)
inside = [len(g) for g in sb.minimal_inside_faces(cx23)]
print(f"  from the resolution top: {degrees}; from the face lattice: {sorted(inside)}")
