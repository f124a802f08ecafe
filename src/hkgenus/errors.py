"""The package's three exceptions.  ``InputError``: anything a user can cause (bad
files, bad arguments, tables of the wrong shape); its subclass ``ValidationError``:
a well-shaped table that fails validation; ``InternalInconsistencyError``: a state
no input should reach, always a bug.  The CLI exits with 1 and 3 for them.
"""


class InputError(Exception):
    """Invalid input: parse failure, domain violation, or failed validation."""


class ValidationError(InputError):
    """A well-shaped table that violates required invariants.

    Always carries ``report``, the failed ValidationReport; its ``summary()`` is the message.
    """

    def __init__(self, report):
        super().__init__(report.summary())
        self.report = report

    def __reduce__(self):  # pickle rebuilds the error from its report, not from its message
        return type(self), (self.report,)


class InternalInconsistencyError(Exception):
    """Two independently computed forms of the same quantity disagree.

    Never a data problem: valid and invalid inputs alike must either produce
    agreeing forms or fail earlier with an InputError.
    """
