"""Walkthrough: the simplicial ball attached to the 2x3 maximal minors.

Facets of the complex are single monotone lattice paths from the top-right
to the bottom-left of a 2x3 grid.  We enumerate them, certify the shelling
and the ball gluing step by step, and read the h-vector off in three
independent ways: the f-vector transform, the corner counts, and the
glued ridges of the certificate.
"""

import shellball as sb

spec = sb.MinorSpec.diagonal(2, 3, 1)
facets = sb.enumerate_facets(spec)

print(f"minor {spec.rows}|{spec.cols} in a {spec.m}x{spec.n} grid")
print(f"{len(facets)} facets, each of {spec.facet_size} grid points\n")

for fam in facets:
    print(sb.render_ascii(fam))
    print(f"corners: {sorted(fam.corners)}\n")

cx, order = sb.path_complex(spec, facets)
cert = sb.verify_ball(cx, order)
print(f"shelling order {order}: shelling ok = {cert.shelling.ok}, ball ok = {cert.ok}")

f = sb.f_vector(cx)
h = sb.h_vector(f)
print(f"f-vector {f}")
print(f"h-vector by binomial transform: {h}")
print(f"h-vector by corner counts:      {sb.h_via_corners(facets)}")
print(f"h-vector by the certificate:    {sb.certified_h(cx, cert.shelling)}")

boundary = sb.boundary_complex(cx)
bh = sb.h_vector(sb.f_vector(boundary))
print(f"\nboundary sphere: {len(boundary.facets)} triangles, h' = {bh}")
print(f"h' from the ball's h by partial sums: {sb.boundary_h_from_h(h)}")
print(f"minimal nonfaces (diagonal supports): {sb.minimal_nonfaces(cx)}")
print(f"minimal inside faces:                 {sb.minimal_inside_faces(cx)}")
print(f"minimal inside faces by certificate:  {sb.certified_inside_faces(cx, cert)}")
