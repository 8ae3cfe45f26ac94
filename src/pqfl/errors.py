"""Exception taxonomy shared across the package.

Verification failures on the server side are rejection *data*, not
exceptions; the classes here cover programming errors, malformed inputs,
and client-side protocol violations that abort the current operation.
"""


class PqflError(Exception):
    """Base class for all package-specific errors."""


# --- signature schemes ---

class UnsupportedScheme(PqflError):
    """The requested scheme has no compiled-in adapter, or is disallowed
    in the current mode (e.g. the test scheme under strict mode)."""


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


# --- protocol (client side) ---

class SignatureInvalid(PqflError):
    """Envelope signature does not verify under the expected key."""


class ReplayDetected(PqflError):
    """Envelope round is not newer than the last accepted round."""


class WrongSender(PqflError):
    """Envelope sender id is not the expected participant."""


# --- transport ---

class ConnectionFailed(PqflError):
    """TCP connect or accept failed."""


class FrameTooLarge(PqflError):
    """Incoming frame length exceeds the configured cap."""


class PeerClosed(PqflError):
    """The remote side closed the connection mid-frame."""
