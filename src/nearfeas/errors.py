"""Exception hierarchy shared across the package."""


class NearfeasError(Exception):
    pass


class InvalidInstanceError(NearfeasError):
    """Instance failed validation; carries the full list of violations."""

    def __init__(self, problems):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


class InstanceFormatError(NearfeasError):
    """Malformed instance file; names the offending JSON path."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


class ResourceLimitError(NearfeasError):
    pass


class NodeLimitExceeded(ResourceLimitError):
    pass


class EnumerationCapExceeded(ResourceLimitError):
    pass


class RefinementLimitExceeded(ResourceLimitError):
    pass


class PipelineInvariantError(NearfeasError):
    """An internal structural guarantee failed; always a bug, never an input error."""
