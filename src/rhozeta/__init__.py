"""Graph zeta functions of density matrices.

Assigns weighted digraphs to density matrices, computes the associated
zeta function by three mutually cross-checking routes (Euler product over
prime path classes, determinant formula, power-sum series), and applies
it to pure bipartite separability testing and singularity location.
"""
