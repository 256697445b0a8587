"""The three ways a run fails, one exception type per CLI exit code:
ConfigError -> 1, ValidationError -> 2, DegenerateModelError -> 3.
"""


class ConfigError(Exception):
    """Bad user input: unknown keys, malformed values, out-of-range parameters."""


class ValidationError(Exception):
    """A cross-check between independent numerical routes failed."""


class DegenerateModelError(Exception):
    """Parameters put the model on a degenerate branch (not merely out of range)."""
