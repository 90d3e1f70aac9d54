"""Exact-arithmetic toolkit for elliptic K3 surfaces.

Layers: cyclotomic scalars, polynomial rings and rational functions, a small
expression parser, Weierstrass models with Kodaira fiber classification,
function-field automorphism checks, the rigidity calculus on curve graphs,
and an integer-lattice toolkit.  Everything is exact; nothing uses floats.
"""

__version__ = "0.1.0"
