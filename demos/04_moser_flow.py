# The radial straightening flow and the projection-degree diagnostic.
# ===================================================================
#
# The deformation family (t/g + 1 - t) lambda is generated by a field
# colinear with the fiber Euler field, so the flow is one scalar ODE per
# ray: base points cannot drift, and for a factor constant on a ball the
# time-1 map is the exact fiber scaling 1/c.  The flow carries d(lambda) to
# d(lambda/g), checked here through a finite-difference Jacobian against
# exact jets of the target form.
#
# Straightening: a twisted graph in an exact-Lee-class scene is carried to
# an exact Lagrangian for the untwisted form by the flow's closed-form
# time-1 map (q, p) -> (q, p/g).  The certificate is read through the chart
# that straightening returns: its pullback of d(lambda) (zero on this
# curve, where 2-forms vanish) and its Liouville form's loop integral.

import numpy as np

from lcslab import (Jet2, MoserProblem, ScalarField, beta_graph,
                    cotangent_lcs, example_torus_1, integrate_flow,
                    make_manifold, projection_degree, sample_points,
                    straighten_lagrangian, verify_conformal_pullback,
                    zero_section)

T1 = make_manifold(1, 0)
T2 = make_manifold(2, 0)
S1 = cotangent_lcs(T1, [0.0])


def ball(j, c=2.0, r_in=1.0, r_out=2.0):
    p = j[1]
    r2 = p * p
    r = Jet2.where(r2.f > 1e-16, r2, r2 + 1e-16).sqrt()
    x = (r - r_in) * (1.0 / (r_out - r_in))
    s = x * x * x * (x * (x * 6.0 - 15.0) + 10.0)
    w = Jet2.where(r.f <= r_in, r * 0.0,
                   Jet2.where(r.f >= r_out, r * 0.0 + 1.0, s))
    return (1.0 - w) * c + w * 1.0


print("== constant-ball factor: the flow matches the analytic scaling ==")
P = MoserProblem(structure=S1, g=ScalarField(S1.total, ball),
                 outside_radius=3.0)
seeds = np.array([[0.3, 0.5], [2.0, -0.9], [5.0, 0.25]])
res = integrate_flow(P, seeds)
print(f"scales for inner seeds: {np.round(res.scales, 10)} "
      f"(analytic value 0.5)")
print(f"base drift: {res.max_fiber_drift:.1e} (structural zero)")

rep = verify_conformal_pullback(P, samples=256)
print(f"pullback residual |phi_1^* d(lambda) - d(lambda/g)|: "
      f"{rep['residual']:.2e} over {rep['sample_count']} samples")

print()
print("== straightening a twisted graph (exact Lee class) ==")
sigma = 0.3
base = T1
Sg = cotangent_lcs(base, [ScalarField(base, lambda j: j[0].cos() * sigma)])
f = ScalarField(base, lambda j: j[0].sin() * 0.2 + 1.5)
E = beta_graph(f, Sg)


def g_fn(j):
    q, p = j[0], j[1]
    r2 = p * p
    r = Jet2.where(r2.f > 1e-16, r2, r2 + 1e-16).sqrt()
    x = (r - 1.0)
    s = x * x * x * (x * (x * 6.0 - 15.0) + 10.0)
    w = Jet2.where(r.f <= 1.0, r * 0.0,
                   Jet2.where(r.f >= 2.0, r * 0.0 + 1.0, s))
    return ((q.sin() * sigma) * (1.0 - w)).exp()


out, srep = straighten_lagrangian(E, ScalarField(Sg.total, g_fn))
print(f"straightened image closedness: {srep.closedness_sup:.2e}, "
      f"loop integral: {srep.holonomy_sup:.2e} -> exact for the plain form: "
      f"{srep.passed}")

print()
print("== projection degrees ==")
S2 = cotangent_lcs(T2, [0.0, 1.0])
print(f"zero section:      degree {projection_degree(zero_section(S2))}")
print(f"double-cover torus: degree {projection_degree(example_torus_1())} "
      f"(the projection is a 2-cover, so no homotopy equivalence)")
g2 = ScalarField(T2, lambda j: j[0].cos() * 0.4 + j[1].sin() * 0.3)
print(f"twisted graph:      degree {projection_degree(beta_graph(g2, S2))}")
