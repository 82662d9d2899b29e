"""Shared exception types for contract violations and numerical failures."""

from __future__ import annotations


class HalfharmError(Exception):
    """Base class for all package errors."""


class InvalidArgument(HalfharmError, ValueError):
    """An argument is structurally invalid (wrong size, wrong sign, ...)."""


class DomainViolation(HalfharmError, ValueError):
    """A point lies outside the mathematical domain of the operation."""


class PreconditionViolation(HalfharmError, ValueError):
    """A declared precondition was checked and found to fail."""


class NumericalFailure(HalfharmError, ArithmeticError):
    """A computation could not reach the requested accuracy or produced non-finite values."""


class Undersampled(HalfharmError, ValueError):
    """Sampled data is too coarse to resolve the quantity (e.g. winding phase jumps)."""
