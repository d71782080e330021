"""Servlet-style request/response framework.

The paper's implementation ran Java servlets inside the Java Web Server;
this module is the equivalent substrate: a :class:`ServletContainer`
dispatches :class:`Request` objects to registered :class:`Servlet`
handlers and returns :class:`Response` objects, with cookie-less session
tracking via an explicit session id (as JWS did with URL rewriting).

Everything is in-process and synchronous — the unit under study is the
generated interface, not socket plumbing.
"""

from __future__ import annotations

import html
import secrets
import threading
from time import perf_counter
from typing import Any, Callable, Mapping

from repro.errors import AuthenticationError, RoutingError, WebError
from repro.obs import get_observability

__all__ = [
    "Request",
    "Response",
    "Session",
    "SessionManager",
    "Servlet",
    "ServletContainer",
    "escape",
]

#: the ``path`` label of every request that matched no servlet
UNMATCHED_PATH = "(unmatched)"


def escape(text: Any) -> str:
    """HTML-escape arbitrary values for safe interpolation."""
    return html.escape(str(text), quote=True)


class Session:
    """Server-side per-user state."""

    def __init__(self, session_id: str, created_at: float = 0.0) -> None:
        self.session_id = session_id
        self.attributes: dict[str, Any] = {}
        self.created_at = created_at
        self.last_used_at = created_at

    def get(self, key: str, default: Any = None) -> Any:
        return self.attributes.get(key, default)

    def __setitem__(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def __getitem__(self, key: str) -> Any:
        return self.attributes[key]

    def __contains__(self, key: str) -> bool:
        return key in self.attributes


class SessionManager:
    """Creates and resolves sessions by id, with optional idle expiry.

    ``max_idle_seconds`` bounds the gap between requests on one session
    (None disables expiry); ``time_source`` abstracts the clock so tests
    and simulations can drive it.
    """

    def __init__(self, max_idle_seconds: float | None = None,
                 time_source=None) -> None:
        import time as _time

        self._sessions: dict[str, Session] = {}
        self.max_idle_seconds = max_idle_seconds
        self._time_source = time_source or _time.time
        # the threaded web tier creates/expires sessions from many request
        # threads; the store itself must be race-free
        self._lock = threading.Lock()

    def create(self) -> Session:
        session_id = secrets.token_urlsafe(12)
        session = Session(session_id, created_at=self._time_source())
        with self._lock:
            self._sessions[session_id] = session
        return session

    def get(self, session_id: str | None) -> Session | None:
        if session_id is None:
            return None
        now = self._time_source()
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None:
                return None
            if (
                self.max_idle_seconds is not None
                and now - session.last_used_at > self.max_idle_seconds
            ):
                del self._sessions[session_id]
                return None
            session.last_used_at = now
            return session

    def invalidate(self, session_id: str) -> None:
        with self._lock:
            self._sessions.pop(session_id, None)

    def __len__(self) -> int:
        return len(self._sessions)


class Request:
    """One servlet invocation."""

    def __init__(
        self,
        path: str,
        params: Mapping[str, Any] | None = None,
        method: str = "GET",
        session: Session | None = None,
        files: Mapping[str, bytes] | None = None,
    ) -> None:
        self.path = path
        self.params = dict(params or {})
        self.method = method.upper()
        self.session = session
        #: uploaded files (name -> bytes), for the code-upload endpoint
        self.files = dict(files or {})

    def param(self, name: str, default: Any = None) -> Any:
        return self.params.get(name, default)

    def require_param(self, name: str) -> Any:
        try:
            return self.params[name]
        except KeyError:
            raise WebError(f"missing required parameter {name!r}") from None

    @property
    def user(self):
        """The authenticated user attached to the session (or None)."""
        if self.session is None:
            return None
        return self.session.get("user")

    def require_user(self):
        user = self.user
        if user is None:
            raise AuthenticationError("login required")
        return user


class Response:
    """What a servlet returns."""

    def __init__(
        self,
        body: str | bytes = "",
        status: int = 200,
        content_type: str = "text/html",
        headers: Mapping[str, str] | None = None,
    ) -> None:
        self.body = body
        self.status = status
        self.content_type = content_type
        self.headers = dict(headers or {})

    @classmethod
    def html(cls, body: str, status: int = 200) -> "Response":
        return cls(body, status=status, content_type="text/html")

    @classmethod
    def data(cls, payload: bytes, mime_type: str) -> "Response":
        """Rematerialised object with its MIME type set (the paper's BLOB/
        CLOB hyperlink behaviour)."""
        return cls(payload, content_type=mime_type)

    @classmethod
    def redirect(cls, location: str) -> "Response":
        return cls("", status=302, headers={"Location": location})

    @classmethod
    def error(cls, message: str, status: int = 400) -> "Response":
        return cls.html(
            f"<html><body><h1>Error {status}</h1>"
            f"<p>{escape(message)}</p></body></html>",
            status=status,
        )

    @property
    def text(self) -> str:
        if isinstance(self.body, bytes):
            return self.body.decode("utf-8", errors="replace")
        return self.body

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def __repr__(self) -> str:
        return f"Response(status={self.status}, {self.content_type}, {len(self.body)}B)"


class Servlet:
    """Base handler; subclasses override :meth:`service`."""

    def service(self, request: Request) -> Response:
        raise NotImplementedError


class _FunctionServlet(Servlet):
    def __init__(self, fn: Callable[[Request], Response]) -> None:
        self._fn = fn

    def service(self, request: Request) -> Response:
        return self._fn(request)


class ServletContainer:
    """Routes paths to servlets and manages sessions.

    Error policy mirrors a production container: handler exceptions become
    error responses (401/403/404/400) rather than propagating, so one bad
    request cannot take the archive down.
    """

    def __init__(self, session_max_idle: float | None = None,
                 time_source=None) -> None:
        self.sessions = SessionManager(session_max_idle, time_source)
        self._routes: dict[str, Servlet] = {}
        #: optional per-request database connection pool (threaded serving)
        self.pool = None

    def use_connection_pool(self, pool) -> None:
        """Serve each request on a pooled database connection.

        With a :class:`~repro.sqldb.connection.ConnectionPool` installed,
        every dispatch checks a connection out and installs it as the
        calling thread's implicit connection, so all ``db.execute`` calls
        inside the handlers run on it (snapshot reads, independent
        transaction state).  Checkout blocking doubles as backpressure
        when every pooled connection is busy; a checkout timeout maps to
        ``503``.
        """
        self.pool = pool

    def register(self, path: str, servlet: Servlet | Callable[[Request], Response]) -> None:
        if path in self._routes:
            raise WebError(f"path {path!r} already registered")
        if not isinstance(servlet, Servlet):
            servlet = _FunctionServlet(servlet)
        self._routes[path] = servlet

    def routes(self) -> list[str]:
        return sorted(self._routes)

    def dispatch(
        self,
        path: str,
        params: Mapping[str, Any] | None = None,
        method: str = "GET",
        session_id: str | None = None,
        files: Mapping[str, bytes] | None = None,
    ) -> Response:
        """Route one request, converting errors into HTTP-ish responses.

        Every dispatch reports through the observability layer (when
        enabled): an ``http.request`` span plus per-route latency
        histograms and status counters.  Paths with no servlet share the
        one ``path`` label :data:`UNMATCHED_PATH`, so probing unknown
        URLs cannot grow the registry without bound.
        """
        obs = get_observability()
        if not obs.enabled:
            return self._dispatch_inner(path, params, method, session_id, files)
        with obs.tracer.span("http.request", path=path, method=method) as span:
            started = perf_counter()
            response = self._dispatch_inner(
                path, params, method, session_id, files
            )
            elapsed = perf_counter() - started
            span.set(status=response.status, elapsed=elapsed)
        route = path if path in self._routes else UNMATCHED_PATH
        obs.metrics.counter(
            "http.requests", path=route, status=response.status
        ).inc()
        obs.metrics.histogram("http.request_seconds", path=route).observe(elapsed)
        if response.status >= 500:
            obs.events.emit(
                "http.error", path=path, status=response.status,
                detail=response.text[:200],
            )
        return response

    def _dispatch_inner(
        self,
        path: str,
        params: Mapping[str, Any] | None,
        method: str,
        session_id: str | None,
        files: Mapping[str, bytes] | None,
    ) -> Response:
        from repro.errors import (
            AllReplicasDownError,
            AuthorizationError,
            LockTimeout,
            OperationError,
            PermissionDeniedError,
            ReproError,
            TokenError,
        )

        servlet = self._routes.get(path)
        if servlet is None:
            return Response.error(f"no servlet registered for {path}", 404)
        session = self.sessions.get(session_id)
        request = Request(path, params, method, session, files)
        try:
            if self.pool is not None:
                with self.pool.scope():
                    return servlet.service(request)
            return servlet.service(request)
        except AuthenticationError as exc:
            return Response.error(str(exc), 401)
        except (AuthorizationError, PermissionDeniedError, TokenError) as exc:
            return Response.error(str(exc), 403)
        except RoutingError as exc:
            return Response.error(str(exc), 404)
        except LockTimeout as exc:
            # pool exhausted, or the writer lock stayed contended past the
            # timeout: the server is busy, not the request wrong
            return Response.error(str(exc), 503)
        except AllReplicasDownError as exc:
            # replicated downloads fail over transparently; only the loss
            # of *every* replica of a logical host surfaces as an error
            return Response.error(str(exc), 503)
        except (ReproError, OperationError) as exc:
            return Response.error(str(exc), 400)
        except Exception as exc:  # a handler bug must not kill the archive
            return Response.error(
                f"internal error: {type(exc).__name__}: {exc}", 500
            )
