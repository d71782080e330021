"""Encrypted, expiring access tokens for READ PERMISSION DB datalinks.

Paper: "The URL contains an encrypted key that is prefixed to the required
file name. [...] The access tokens have a finite life determined by a
database configuration parameter."

A token authenticates one *scope* (host + file path) until an expiry
instant.  Construction is HMAC-SHA256 over ``scope|expiry`` with a secret
shared between the database server and each file server's file manager, so
servers validate tokens offline — no callback to the database — and tokens
cannot be transplanted onto other files or extended by the client.

Token wire format (URL-safe, no padding)::

    <expiry-hex>.<base64url(hmac[:18])>
"""

from __future__ import annotations

import base64
import hashlib
import hmac
import secrets
import threading
import time
from typing import Callable

from repro.errors import TokenError, TokenExpiredError
from repro.obs import get_observability

__all__ = ["TokenManager", "DEFAULT_VALIDITY_SECONDS"]

#: DB2 DataLinks shipped with a 60-second default "expiry interval"; we use
#: a friendlier default for interactive browsing, as the paper's archive did
DEFAULT_VALIDITY_SECONDS = 600.0

_SIG_BYTES = 18  # 144-bit truncated HMAC — compact URLs, ample security


def _b64(raw: bytes) -> str:
    return base64.urlsafe_b64encode(raw).decode("ascii").rstrip("=")


def _b64decode(text: str) -> bytes:
    padding = "=" * (-len(text) % 4)
    try:
        return base64.urlsafe_b64decode(text + padding)
    except Exception as exc:
        raise TokenError(f"malformed token encoding: {exc}") from exc


class TokenManager:
    """Issues and validates file access tokens.

    ``time_source`` abstracts the clock so simulated time
    (:class:`repro.netsim.SimClock`) and real time both work:

    >>> tm = TokenManager(secret=b"k", validity_seconds=60, time_source=lambda: 100.0)
    >>> token = tm.issue("fs1.soton.ac.uk/data/ts1.dat")
    >>> tm.validate("fs1.soton.ac.uk/data/ts1.dat", token)
    True
    """

    def __init__(
        self,
        secret: bytes | None = None,
        validity_seconds: float = DEFAULT_VALIDITY_SECONDS,
        time_source: Callable[[], float] = time.time,
    ) -> None:
        if validity_seconds <= 0:
            raise TokenError("token validity must be positive")
        self._secret = secret if secret is not None else secrets.token_bytes(32)
        self.validity_seconds = float(validity_seconds)
        self._time_source = time_source
        self.issued_count = 0
        self.validated_count = 0
        #: issuance/validation run from concurrent request threads; the
        #: counters must not lose ticks (tests assert exact totals)
        self._stats_lock = threading.Lock()

    @property
    def now(self) -> float:
        return self._time_source()

    def _sign(self, scope: str, expiry_hex: str) -> bytes:
        message = f"{scope}|{expiry_hex}".encode("utf-8")
        return hmac.new(self._secret, message, hashlib.sha256).digest()[:_SIG_BYTES]

    def issue(self, scope: str, validity_seconds: float | None = None) -> str:
        """Issue a token for ``scope`` valid for the configured interval."""
        validity = self.validity_seconds if validity_seconds is None else validity_seconds
        if validity <= 0:
            raise TokenError("token validity must be positive")
        expiry = self.now + validity
        # millisecond-resolution expiry keeps tokens short but precise
        expiry_hex = format(int(expiry * 1000), "x")
        signature = self._sign(scope, expiry_hex)
        with self._stats_lock:
            self.issued_count += 1
        obs = get_observability()
        if obs.enabled:
            obs.events.emit("token.issue", scope=scope, expiry=expiry)
        return f"{expiry_hex}.{_b64(signature)}"

    def validate(self, scope: str, token: str) -> bool:
        """Check ``token`` authorises ``scope`` now.

        Raises :class:`TokenError` on malformed/forged tokens and
        :class:`TokenExpiredError` when the validity interval has elapsed;
        returns True otherwise.
        """
        with self._stats_lock:
            self.validated_count += 1
        obs = get_observability()
        expiry_hex, sep, signature_text = token.partition(".")
        if not sep or not expiry_hex or not signature_text:
            raise TokenError("malformed token: expected <expiry>.<signature>")
        try:
            expiry_ms = int(expiry_hex, 16)
        except ValueError:
            raise TokenError("malformed token expiry") from None
        expected = self._sign(scope, expiry_hex)
        provided = _b64decode(signature_text)
        if not hmac.compare_digest(expected, provided):
            if obs.enabled:
                obs.metrics.counter("datalink.tokens_rejected").inc()
                obs.events.emit("token.rejected", scope=scope)
            raise TokenError("token signature mismatch (forged or wrong file)")
        if self.now * 1000 > expiry_ms:
            if obs.enabled:
                obs.metrics.counter("datalink.tokens_expired").inc()
                obs.events.emit(
                    "token.expired", scope=scope, expiry=expiry_ms / 1000.0
                )
            raise TokenExpiredError(
                f"token for {scope} expired at t={expiry_ms / 1000:.3f}"
            )
        if obs.enabled:
            obs.events.emit("token.validate", scope=scope)
        return True

    def remaining_validity(self, token: str) -> float:
        """Seconds of validity left (may be negative); no signature check."""
        expiry_hex, _, _ = token.partition(".")
        try:
            expiry_ms = int(expiry_hex, 16)
        except ValueError:
            raise TokenError("malformed token expiry") from None
        return expiry_ms / 1000.0 - self.now
