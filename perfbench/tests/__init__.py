"""Tests of the campaign benchmark harness."""

__all__ = []
