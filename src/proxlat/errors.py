"""Exception types shared across the package."""


class ProxlatError(Exception):
    """Base class for every error raised by proxlat.

    `witnesses` holds (name, element indices) pairs and `labels` the
    element names the indices refer to; both are empty unless the error
    carries witnesses. An error with witnesses always has the labels
    they index, since the CLI writes each index as its label.
    """

    def __init__(self, message="", witnesses=(), labels=()):
        super().__init__(message)
        self.witnesses = tuple(witnesses)
        self.labels = tuple(labels)


class NotAPartialOrder(ProxlatError):
    pass


class NotALattice(ProxlatError):
    """Raised when an order has a pair without a meet or join.

    `witness` is the offending pair of element indices, `missing` is
    "meet" or "join"; `witnesses` names the pair by what is missing.
    """

    def __init__(self, message, witness=None, missing=None, labels=()):
        super().__init__(message, () if witness is None
                         else ((missing, tuple(witness)),), labels)
        self.witness = witness
        self.missing = missing


class DimensionMismatch(ProxlatError):
    pass


class NotAProximityLattice(ProxlatError):
    """The relation violates idempotence or join/meet compatibility."""


class InvalidRoundSubset(ProxlatError):
    pass


class NotAJMorphism(ProxlatError):
    pass


class NotAProximityMorphism(ProxlatError):
    pass


class TransposeError(ProxlatError):
    pass


class NotJoinStrong(ProxlatError):
    pass


class NotMeetStrong(ProxlatError):
    pass


class NotDoublyStrong(ProxlatError):
    pass


class NotDistributive(ProxlatError):
    pass


class NotT0(ProxlatError):
    pass


class KindMismatch(ProxlatError):
    pass


class ExtensionError(ProxlatError):
    """A canonical-extension input does not satisfy the checked contract."""


class InternalCheckError(ProxlatError):
    """A property that is a theorem for valid inputs failed; indicates a bug
    or a violated precondition. Carries its witnesses for debugging."""
