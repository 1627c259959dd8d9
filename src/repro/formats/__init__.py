"""Sparse index formats of the sparser engine (CSC, and COO for the
format ablation)."""

from .sparse import CSCMatrix, COOMatrix

__all__ = ["CSCMatrix", "COOMatrix"]
