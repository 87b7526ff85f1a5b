"""Exception types shared across the toolkit."""


class DataError(Exception):
    """Malformed or insufficient input data (parse failures, missing types, ...)."""


class NumericError(Exception):
    """A non-finite value in training or inference (a gradient, a pre-activation)."""


# magnitudes from here up count as overflow: the certified prediction paths
# stop certifying, and a trained linear head's logit bound raises NumericError
OVERFLOW_BOUND = 1e300
