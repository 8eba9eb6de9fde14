"""Exceptions shared across the package."""


class CapacityError(Exception):
    """An exact computation would exceed a configured size cap.

    Raised instead of silently degrading to an approximation.  The message
    always names the cap that was hit, so callers (and the command line
    front end) can report which knob to turn.
    """


class OracleMismatch(Exception):
    """A printed threshold set disagrees with direct axiom checking.

    Raised by the ``--oracle`` self-check.  It means a bug in the library;
    the message names the subject, the set and the threshold or endpoint.
    """
