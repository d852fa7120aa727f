"""Exception hierarchy shared by the stream library, broker, and runtime."""


class HybridflowError(Exception):
    """Base class for all library errors."""


# --- stream library ---

class RegistrationError(HybridflowError):
    """Stream could not be registered with the server."""


class AliasKindMismatch(RegistrationError):
    """Alias already registered with a different stream kind."""


class InvalidPath(HybridflowError):
    """Base directory is missing, relative, or unreadable."""


class BackendError(HybridflowError):
    """The stream backend rejected or failed an operation."""


class ClosedStreamError(BackendError):
    """Publish attempted on a stream that is already closed."""


class UnknownStream(HybridflowError):
    """Stream id is not present in the server registry."""


class ServerUnreachable(HybridflowError):
    """The metadata server did not answer."""


# --- log broker ---

class BrokerError(HybridflowError):
    """Base class for broker-side failures."""


class DuplicateTopic(BrokerError):
    pass


class UnknownTopic(BrokerError):
    pass


class UnknownGroup(BrokerError):
    pass


# --- server ---

class BindError(HybridflowError):
    """Server could not bind its listen address."""


class ProtocolError(HybridflowError):
    """Malformed frame or unexpected verb on the wire."""


# --- task runtime ---

class RuntimeFlowError(HybridflowError):
    """Base class for workflow runtime errors."""


class InvalidAnnotation(RuntimeFlowError):
    """Parameter annotation violates the model (e.g. STREAM INOUT)."""


class UnknownMethod(RuntimeFlowError):
    pass


class UnknownData(RuntimeFlowError):
    """wait_on called for a data id that no task has written."""


class ExecutionFailure(RuntimeFlowError):
    """Task failed after exhausting its retry."""
