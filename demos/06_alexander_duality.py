"""Alexander duals and the dual-matrix description of their generators.

The dual of the maximal-minor initial complex is generated by the minimal
vertex covers of the diagonal monomials, and those covers are exactly the
maximal-minor diagonals of a second matrix glued to the first along
shifted diagonals.
"""

import shellball as sb
from shellball.complexes import vertices_of

m, n = 3, 4
print(f"dual matrix of a {m}x{n} matrix (identified entries shown as X..):\n")
ymat = sb.dual_matrix(m, n)
for k in range(1, n - m + 2):
    row = [f"X{x[0]}{x[1]}" if (x := ymat[k, c]) else f"Y{k}{c}" for c in range(1, n + 1)]
    print(" ".join(f"{e:>4}" for e in row))

verdict = sb.verify_dual_theorem(m, n)
print(
    f"\ncover identity: passed = {verdict.passed}; "
    f"{verdict.diagonal_count} dual diagonals = {verdict.cover_count} minimal covers"
)

print("\ngenerators of the maximal-minor initial ideal:")
for d in sb.sr_generators(sb.MinorSpec.diagonal(m, n, m - 1)):
    print(f"  {d}")

cx, _ = sb.path_complex(sb.MinorSpec.diagonal(2, 3, 1))
dual = sb.alexander_dual(cx)
print("\n2x3 example: dual facets are complements of the diagonal pairs:")
for f in dual.facets:
    print(f"  {sorted(vertices_of(f))}")
print(f"dual of the dual equals the original: {sb.alexander_dual(dual) == cx}")
