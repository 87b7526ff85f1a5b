"""Exception types shared across the toolkit."""


class DataError(Exception):
    """Malformed or insufficient input data (parse failures, missing types, ...)."""


class NumericError(Exception):
    """A non-finite value in training or inference (a gradient, a pre-activation)."""
