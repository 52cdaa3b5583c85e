"""Generating parallel structures from the classification families.

Non-degenerate families (compact, and split with non-degenerate ideal)
are always flat.  The degenerate split family is where the interesting
geometry lives: Ricci-flat, non-flat metrics with abelian holonomy of
dimension one or two appear, and for delta != 0 the closed-form rules
below read the holonomy dimension straight off the parameters.
"""

from g2aa import Matrix
from g2aa.classify import (
    NilpotentParallelParams,
    ParallelFamilyParams,
    build_instance,
    nilpotent_parallel_report,
    pipeline_report,
)
from g2aa.geometry import curvature, levi_civita

print("non-degenerate families (flat by the classification):")
for p in (
    ParallelFamilyParams(family="g2_su3", reals=(1, 2)),
    ParallelFamilyParams(family="g2star_24", case=1, reals=(2, 1)),
    ParallelFamilyParams(family="g2star_24", case=4),
    ParallelFamilyParams(family="g2star_33", block=Matrix([[1, 2, 0], [0, -3, 1], [1, 0, 2]])),
):
    inst = build_instance(p)  # closure of phi and star(phi) checked inside
    conn = levi_civita(inst.algebra, inst.structure.metric)
    flat = curvature(conn).is_flat
    print(f"  {inst.family:12s} eps={inst.structure.eps:+d}  flat={flat}")

print()
print("degenerate nilpotent family: holonomy from the parameters")
cases = [
    ("flat", NilpotentParallelParams.of(1, [[0, 0], [0, 0]], (0, 0), (0, 0))),
    ("hol dim 1", NilpotentParallelParams.of(1, [[1, 0], [0, -1]], (0, 0), (0, 0))),
    ("hol dim 2", NilpotentParallelParams.of(1, [[0, 0], [1, 0]], (1, 0), (0, 0))),
]
for label, p in cases:
    closed = nilpotent_parallel_report(p)
    direct = pipeline_report(p)
    assert closed == direct
    print(f"  {label:10s} -> algebra {closed.algebra_name:12s} hol {closed.hol_dim} "
          f"locally symmetric {closed.locally_symmetric}  flat {closed.flat}")
