"""Colorings, local-lemma resampling and uniform-density configurations
on finitely generated groups, at finite window scale."""

__version__ = "0.1.0"
