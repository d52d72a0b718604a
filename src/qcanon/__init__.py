"""Exact canonical-basis computations for quantum sl2 tensor products.

The package computes, entirely in Z[v, v^-1] with q = v^2:

* simple, truncated Verma and contragredient weight modules (`weightmod`),
* weight slices of tensor products with coproduct matrices (`tensor`),
* quasi-R-matrices, Cartan factors and longest-element braidings (`rmatrix`),
* the bar-involution fixed-point solver for canonical and dual canonical
  bases, plus singular-vector extraction (`canonical`),
* the non-crossing arc-diagram model with its index bijection (`diagrams`),
* the unit-weight cabling comparison between the two models (`cabling`),
* a property/acceptance suite (`verify`) and a JSON/SVG command line (`cli`).
"""

from .qring import (ONE, ZERO, QScalar, exact_div, in_qinv_ideal,
                    quantum_binomial, quantum_factorial, quantum_int,
                    solve_bar_equation)
from .weightmod import (apply_generator, contragredient, make_simple,
                        make_verma_truncated, shapovalov_embed)
from .tensor import dual_factors, enumerate_P, simple_factors, weight_space
from .canonical import (canonical_basis_pair, dual_canonical_basis,
                        is_singular, singular_subset)
from .diagrams import (ArcDiagram, block_map, cable_diagram, diagram_of_index,
                       enumerate_B, filter_invariant, filter_singular,
                       index_of_diagram, render, validate_diagram)
from .cabling import dual_cabling_matrix, cabling_report

__version__ = "0.1.0"
