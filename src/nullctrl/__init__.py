"""Distributed null controls for 2D heat, Stokes and Navier-Stokes flows.

Space-time finite element discretization of weighted least-squares control
formulations, solved as saddle-point systems (Arrow-Hurwicz iteration,
LSMR or sparse factorization) and verified with independent forward solvers.
"""

__version__ = "0.1.0"
