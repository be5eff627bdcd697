# Twisted exterior calculus on a cotangent bundle, from the ground up.
# =====================================================================
#
# Everything in this library evaluates through second-order jets, so the
# derivatives appearing below are exact up to rounding, never finite
# differences.  We build the canonical structure on T*T^2 with Lee form
# d(phi), check the square-zero property of the twisted derivative, and
# watch the nondegeneracy criterion fail exactly on the unit sphere bundle.

import numpy as np

from lcslab import (ScalarField, check_nondegenerate, cotangent_lcs,
                    criterion_radial_log_derivative, exterior_d, field_form,
                    interior_product, lichnerowicz_d, liouville_flow,
                    liouville_vector_field, make_manifold, sample_points)

T2 = make_manifold(2, 0)
S = cotangent_lcs(T2, [0.0, 1.0])       # beta = d(q2)
pts = sample_points(S.total, 200)

print("== the twisted derivative squares to zero ==")
alpha = field_form(ScalarField(S.total,
                               lambda j: j[0].sin() * j[2] + j[1].cos()))
dd = lichnerowicz_d(lichnerowicz_d(alpha, S.beta), S.beta)
print(f"sup |d_beta(d_beta alpha)| over 200 points: "
      f"{np.abs(dd.coefficients(pts)).max():.3e}")

print()
print("== the fiber Euler field contracts d(lambda) back to lambda ==")
Z = liouville_vector_field(S)
res = (interior_product(Z, exterior_d(S.lam)).coefficients(pts)
       - S.lam.coefficients(pts))
print(f"sup |i_Z d(lambda) - lambda|: {np.abs(res).max():.3e}")

print()
print("== its flow scales fibers exactly ==")
x = np.array([0.3, 0.4, 0.0, 1.0])
y = liouville_flow(S, x, np.log(3.0))
print(f"Phi_ln3 (q, (0,1)) = {y}")

print()
print("== where does lambda/g stop being a Liouville form? ==")
# g = exp(r^2 / 2): the radial log-derivative is r^2, so the rescaled
# 2-form d(lambda/g) degenerates exactly on the unit sphere bundle.
g = ScalarField(S.total, lambda j: ((j[2] * j[2] + j[3] * j[3]) * 0.5).exp())
grid = sample_points(S.total, 4096)
rep = criterion_radial_log_derivative(g, S, grid)
print(f"sup d(ln g)(Z) over the default grid: {rep.sup:.3f} "
      f"(pass below 1: {rep.passed})")

ginv = ScalarField(S.total,
                   lambda j: (-(j[2] * j[2] + j[3] * j[3]) * 0.5).exp())
omega = exterior_d(S.lam * ginv)
rs = np.linspace(0.5, 1.5, 101)
line = np.concatenate([np.tile([0.3, 1.1], (rs.size, 1)),
                       rs[:, None] * np.array([[0.6, 0.8]])], axis=1)
ndg = check_nondegenerate(omega, line, tol=1e-6)
r_bad = np.linalg.norm(ndg.worst_point[2:])
print(f"smallest |det| along a radial line sits at r = {r_bad:.4f} "
      f"(degeneracy predicted at r = 1)")
