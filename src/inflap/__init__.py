"""Numerical certification of maximum-principle and convex-hull-property
counterexamples for the vectorial infinity-Laplacian's tangential system and
its scalar perturbation.

The library builds the explicit constructions (constant-speed curve graphs,
radial bumps, the polar spiral, and the perturbed scalar profile), verifies
that the relevant residual vanishes on dense grids with both exact jets and
a finite-difference oracle, and measures by how much each construction
violates the maximum/minimum principle or escapes the convex hull of its
boundary values.
"""
