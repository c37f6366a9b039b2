"""Service error hierarchy mapped onto HTTP status codes.

Every failure a handler can articulate is a :class:`ServiceError` subclass
carrying its HTTP status; the dispatcher also folds the library's own
``ValueError``/``TypeError`` (invalid parameters) and ``KeyError``
(off-grid table lookups) into 400/404 so clients always receive a JSON
error object instead of a traceback.
"""

from __future__ import annotations

__all__ = [
    "ServiceError",
    "BadRequestError",
    "ForbiddenError",
    "NotFoundError",
    "MethodNotAllowedError",
    "PayloadTooLargeError",
    "OverloadedError",
    "DeadlineExceededError",
]


class ServiceError(Exception):
    """Base class: an error with a definite HTTP status code."""

    status: int = 500
    reason: str = "Internal Server Error"


class BadRequestError(ServiceError):
    """Malformed JSON, missing fields, or out-of-domain parameters."""

    status = 400
    reason = "Bad Request"


class ForbiddenError(ServiceError):
    """A chaos endpoint hit on a server started without ``--chaos-admin``."""

    status = 403
    reason = "Forbidden"


class NotFoundError(ServiceError):
    """Unknown route, or an off-grid / infeasible ``e_bar_b`` table key."""

    status = 404
    reason = "Not Found"


class MethodNotAllowedError(ServiceError):
    """Known route hit with the wrong HTTP method."""

    status = 405
    reason = "Method Not Allowed"


class PayloadTooLargeError(ServiceError):
    """Request body exceeds the configured size limit."""

    status = 413
    reason = "Payload Too Large"


class OverloadedError(ServiceError):
    """The sweep pool's queue is full — backpressure, retry later."""

    status = 429
    reason = "Too Many Requests"


class DeadlineExceededError(ServiceError):
    """The request blew past ``--request-timeout-ms``; its work was cancelled."""

    status = 504
    reason = "Gateway Timeout"
