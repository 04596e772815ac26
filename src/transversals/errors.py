"""Failure types shared across the package.

Every cap is a named limit; blowing one raises CapExceeded rather than
grinding or silently truncating.  HypothesisViolation marks an exact-division
failure in an averaging engine: with correct inputs the quotient is an orbit
count, so a remainder means the supplied acting group was wrong or there is
a bug.
"""

import sys


class CapExceeded(RuntimeError):
    """`required` is the size the run needs, or its formula (such as
    "60000!") when that size is at least PRINT_LIMIT."""

    def __init__(self, cap_name: str, limit: int, required: int | str):
        self.cap_name = cap_name
        self.limit = limit
        self.required = required
        super().__init__(
            f"cap '{cap_name}' exceeded: requires {required}, limit is {limit}"
        )


class HypothesisViolation(RuntimeError):
    pass


class DisagreementError(RuntimeError):
    """Two engines that must agree produced different values."""

    def __init__(self, message: str, values=None):
        super().__init__(message)
        self.values = values or ()


CAP_GROUP_ORDER = 10_000_000
CAP_TRANSVERSALS = 10_000_000
CAP_STAB_ENUM = 362_880  # (n-1)! search space for stabilizer-side sweeps, n <= 10
CAP_RELABELINGS = 100_000

# A refusal states a count longer than Python prints by default (4,300
# digits; Python 3.10 before 3.10.7 has no such attribute) as its formula
PRINT_LIMIT = 10 ** getattr(sys.int_info, "default_max_str_digits", 4300)
