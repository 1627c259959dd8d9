"""Sparse index format of the sparser engine (CSC)."""

from .sparse import CSCMatrix

__all__ = ["CSCMatrix"]
