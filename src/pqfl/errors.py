"""Exception taxonomy shared across the package.

The classes here cover programming errors and malformed inputs that abort
the current operation. An envelope refused at admission, on either side, is
`protocol.Refused`, which carries its `protocol.Rejection`.
"""


class PqflError(Exception):
    """Base class for all package-specific errors."""


# --- signature schemes ---

class UnsupportedScheme(PqflError):
    """An unknown scheme name or wire code, a value that is not a `SchemeId`,
    ML-DSA or SLH-DSA with no OpenSSL >= 3.5 libcrypto, or strict-mode TestScheme."""


class AdapterFailure(PqflError):
    """The underlying signature implementation failed; the cause text is
    preserved in the message."""


# --- codec ---

class NonFiniteValue(PqflError):
    """A parameter payload contains NaN or Inf."""


class MalformedPayload(PqflError):
    """A parameter payload cannot be decoded (truncation, rank 0, length
    mismatch, or dimension overflow)."""


class MalformedEnvelope(PqflError):
    """An envelope fails structural validation (bad magic, version,
    message type, or length fields)."""


# --- federated core ---

class TooFewSamples(PqflError):
    """Dataset has fewer samples than the requested number of shards."""


class DimensionMismatch(PqflError):
    """Model, dataset, or update shapes disagree."""


class NonFiniteGradient(PqflError):
    """Local training diverged and produced NaN/Inf parameters."""


class EmptyVerifiedSet(PqflError):
    """Aggregation was asked to average zero verified updates."""


class RoundMismatch(PqflError):
    """An update's round does not match the aggregation round."""


# --- transport ---

class ConnectionFailed(PqflError):
    """TCP connect or accept failed."""


class FrameTooLarge(PqflError):
    """Incoming frame length exceeds the configured cap."""


class PeerClosed(PqflError):
    """The remote side closed the connection mid-frame."""
