"""Weakly supervised polarity scoring over co-occurrence graphs."""

__version__ = "0.1.0"
