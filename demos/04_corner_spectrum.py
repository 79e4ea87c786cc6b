"""Corner counts of non-flippable facets and a witness for each.

A facet is non-flippable when no path of it, taken alone, can trade a
point for its diagonal neighbour; the possible corner counts of such facets
fill the whole interval [r, r(m-r)].  The first enumerated facet with each
count is its witness, rendered here for the 6x7 grid with r = 3.
A flip that lands on a sibling path is blocked in the family, so a few
flippable facets are still corner-maximal; the last lines list them.
"""

import shellball as sb

for m, n, r in [(2, 3, 1), (4, 5, 2), (6, 7, 3)]:
    facets = sb.enumerate_facets(sb.MinorSpec.diagonal(m, n, r))
    witnesses = sb.corner_spectrum(facets)
    spectrum = sorted(witnesses)
    print(
        f"{m}x{n}, r={r}: {len(facets)} facets, "
        f"non-flippable corner counts {spectrum} "
        f"(expected {list(range(r, r * (m - r) + 1))})"
    )

print("\nconstructed non-flippable facets on the 6x7 grid (corners upper-case):\n")
for t in (3, 6, 9):
    fam = witnesses[t]
    print(f"t = {t}: corners {sorted(fam.corners)}")
    print(sb.render_ascii(fam))
    print()

fams = sb.enumerate_facets(sb.MinorSpec.diagonal(3, 4, 2))
disc = [f for f in fams if sb.is_non_flippable(f) != sb.is_corner_maximal(f, fams)]
print("facets where per-path flips and corner-maximality disagree (3x4, r=2):")
for fam in disc:
    print(f"  corners {sorted(fam.corners)}: a flip exists per-path but lands on the sibling path")
