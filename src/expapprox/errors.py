"""The error base shared by the numerical layers.

``Undecided`` means that a run could not reach a verdict: a numerical path
failed or the available precision ran out.  The CLI maps it to exit code 3.
It lives in a module of its own so that catching it imports no numerical
library.
"""


class Undecided(RuntimeError):
    """No verdict: a numerical path failed or the precision ran out."""
