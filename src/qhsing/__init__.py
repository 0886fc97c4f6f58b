"""Workbench for quasi-homogeneous singularities.

Modules:
  wpoly     - polynomials, exact weights, Milnor numbers, growth data
  symmetry  - diagonal symmetry groups, sectors, gluing involution
  graphcalc - decorated dual graphs, selection rules, index formulas
  morse     - linear Morse perturbations, chambers, wall detection
  lefschetz - thimble bases, monodromy/braid moves, wall crossing
  exact     - Fraction linear algebra: solve, inverse, determinant, rank
  soliton   - BPS flow, soliton counting, cylinder Fourier layer
  cli       - command-line surface
"""

from .wpoly import QHPoly, parse_polynomial, compute_weights, milnor_number
from .symmetry import GroupElement, enumerate_group, sector_data, central_charge

__all__ = [
    "QHPoly",
    "parse_polynomial",
    "compute_weights",
    "milnor_number",
    "GroupElement",
    "enumerate_group",
    "sector_data",
    "central_charge",
]

__version__ = "0.1.0"
