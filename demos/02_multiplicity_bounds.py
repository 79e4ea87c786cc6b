"""The multiplicity-bound pipeline over a small corpus of shelled balls.

For each instance we compute the boundary sphere, its multiplicity e, the
closed-form bounds L and U driven by the least nonface size, the bounds
derived from an actual Betti table, and the hypothesis flags.  Everything
is exact; verdicts never involve floats.
"""

import shellball as sb

print(f"{'instance':<18} {'n':>3} {'d':>3} {'m':>3} {'e':>5}  {'L':>8} {'U':>8}  A1    A2    verdict")
for kind, params in [
    ("minor", (2, 3, 1)),
    ("minor", (3, 4, 1)),
    ("minor", (3, 4, 2)),
    ("minor", (3, 5, 1)),
    ("polar", (2, 2)),
    ("polar", (3, 2)),
    ("polar", (2, 3)),
    ("polar", (3, 3)),
]:
    if kind == "minor":
        m, n, r = params
        cx, order = sb.path_complex(sb.MinorSpec.diagonal(m, n, r))
        name = f"minor {m}x{n} r={r}"
    else:
        n, t = params
        cx, order = sb.power_ideal_complex(n, t)
        name = f"polar n={n} t={t}"
    rep = sb.check_conjecture(cx, order, instance=name)
    print(
        f"{name:<18} {rep.n:>3} {rep.d:>3} {str(rep.m):>3} {rep.e:>5}  "
        f"{str(rep.L):>8} {str(rep.U):>8}  {str(rep.A1):<5} {str(rep.A2):<5} {rep.verdict}"
    )

print("\ncyclic-polytope comparators (the upper-bound chain):")
for n, d in [(6, 5), (8, 5), (7, 4), (8, 4)]:
    h = sb.cyclic_h(n, d)
    e = sum(h)
    shifts = sb.cyclic_max_shifts(n, d)
    bound = sb.shift_bound(shifts)
    rel = "=" if e == bound else "<"
    print(f"  boundary of C({n},{d - 1}): h* = {h}, e = {e} {rel} {bound} = prod(M*)/(n-d+1)!")
