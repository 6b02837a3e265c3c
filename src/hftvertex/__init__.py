"""Exact equivariant vertex characters and partition functions for
framed rank r pairs on the resolved conifold, computed over the
rationals."""

__version__ = "0.1.0"
