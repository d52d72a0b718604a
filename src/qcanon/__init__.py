"""Exact canonical-basis computations for quantum sl2 tensor products.

The package computes, entirely in Z[v, v^-1] with q = v^2:

* simple and contragredient weight modules (`weightmod`),
* weight slices of tensor products with coproduct matrices (`tensor`),
* quasi-R-matrices, Cartan factors and longest-element braidings (`rmatrix`),
* the certified dual canonical basis, the canonical basis as its inverse
  transpose, and singular-vector extraction (`canonical`),
* the non-crossing arc-diagram model with its index bijection (`diagrams`),
* the unit-weight cabling comparison between the two models (`cabling`),
* a property/acceptance suite (`verify`) and a JSON/SVG command line (`cli`),
* the few pieces all of these share, in a module that imports no other
  (`common`).

Importing the package loads none of its modules; import each from its own.
"""

__version__ = "0.1.0"
