"""
Real-rooted specializations and open questions
==============================================

Specializing the four-variable interval enumerator of the size-n lattice
to a single variable z produces polynomials that appear to have only real,
nonpositive roots.  The package decides this exactly, with Sturm sequences
over the integers -- no floating point.  The same machinery powers a set
of verification suites, including evidence for statements that remain
conjectural.
"""

from intervalence import (
    MultiPoly,
    all_roots_real_negative,
    interval_valence_polynomial,
    run_suites,
    summarize_reports,
    sturm_sequence,
)

# ----------------------------------------------------------------------
# Three nested specializations of DD_n, in the variable order
# (x, y, ybar, xbar): plug z into one, two, or three of the first slots.

z = MultiPoly.variable(("z",), "z")
names = ("(z,1,1,1)", "(z,z,1,1)", "(z,z,z,1)")
bindings = (
    {"x": z, "y": 1, "ybar": 1, "xbar": 1},
    {"x": z, "y": z, "ybar": 1, "xbar": 1},
    {"x": z, "y": z, "ybar": z, "xbar": 1},
)

for n in range(2, 8):
    p = interval_valence_polynomial(n)
    verdicts = []
    for label, binding in zip(names, bindings):
        f = p.substitute(binding, ("z",))
        k = min(e for e, in f.terms)  # allow roots at 0: divide out z^k
        f = MultiPoly(("z",), {(e - k,): c for (e,), c in f.terms.items()})
        verdicts.append(all_roots_real_negative(f))
    print(f"n={n}: all roots real and <= 0 for {names}: {verdicts}")

# The n=3 case is small enough to look at directly: z^2 + 7z + 5, whose
# Sturm chain certifies two negative real roots.
p3 = interval_valence_polynomial(3).substitute(bindings[0], ("z",))
print("\nDD_3(z,1,1,1) =", p3)
for step in sturm_sequence(p3):
    print("  sturm:", step)

# ----------------------------------------------------------------------
# The verification suites bundle every theorem-scale and conjecture-scale
# check; "conjectures" covers the statements that are supported by data but
# unproven (simple intervals, a Motzkin count, an antichain observation),
# and any failure there would be a reportable counterexample rather than a
# bug.

reports = run_suites("all", 5)
print()
print(summarize_reports(reports))
