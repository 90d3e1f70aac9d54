"""Exact-arithmetic toolkit for elliptic K3 surfaces.

Layers: cyclotomic scalars, polynomial rings and rational functions, a small
expression parser, Weierstrass models with Kodaira fiber classification,
function-field automorphism checks, the rigidity calculus on curve graphs,
and an integer-lattice toolkit.  Everything is exact.  The one float is
``polyring.INF``, the vanishing order of the zero polynomial: it is only
compared and printed, never used in arithmetic.
"""

__version__ = "0.1.0"
