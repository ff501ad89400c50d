"""Harmonize heterogeneous single-cell perturbation datasets and search
modeling pipelines over a hierarchical action space."""

__version__ = "0.1.0"
