"""Hybridflow: task-based workflows with distributed data streams.

The package bundles a stream library (object streams over an in-repo log
broker, file streams over a directory monitor), the metadata
server coordinating producers and consumers, a stream-aware task runtime, and
the benchmark workbench driving both.
"""

from .broker import Broker
from .client import DistroStreamClient
from .errors import (
    AliasKindMismatch, BackendError, BindError, BrokerError, ClosedStreamError,
    DuplicateTopic, ExecutionFailure, HybridflowError, InvalidAnnotation,
    InvalidPath, ProtocolError, RegistrationError, RuntimeFlowError,
    ServerUnreachable, UnknownData, UnknownGroup, UnknownMethod, UnknownStream,
    UnknownTopic,
)
from .model import ConsumerMode, LogRecord, StreamElement, StreamHandle, StreamKind
from .server import StreamServer
from .streams import DistroStream, attach, create_stream

__all__ = [
    "Broker", "DistroStream", "DistroStreamClient", "StreamServer",
    "ConsumerMode", "LogRecord", "StreamElement", "StreamHandle", "StreamKind",
    "attach", "create_stream",
    "AliasKindMismatch", "BackendError", "BindError", "BrokerError",
    "ClosedStreamError", "DuplicateTopic", "ExecutionFailure", "HybridflowError",
    "InvalidAnnotation", "InvalidPath", "ProtocolError", "RegistrationError",
    "RuntimeFlowError", "ServerUnreachable", "UnknownData", "UnknownGroup",
    "UnknownMethod", "UnknownStream", "UnknownTopic",
]
