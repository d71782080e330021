"""Users, roles and the guest restrictions.

The paper's demo archive had a ``guest/guest`` account with limited
rights: guests "cannot download datasets, cannot upload post-processing
codes, and are limited in the types of operations they can run".  Roles:

* ``guest`` — browse and search only; operations must be explicitly
  flagged ``guest.access="true"`` in the XUIS,
* ``user`` — may also download datasets and run all operations,
* ``admin`` — may additionally upload post-processing codes for *other*
  columns and manage users (the paper's web-based user management page).

Authorised (non-guest) users may upload code where the XUIS permits it.
"""

from __future__ import annotations

import hashlib
import secrets
import threading

from repro.errors import AuthenticationError, AuthorizationError

__all__ = ["User", "UserManager", "ROLES"]

ROLES = ("guest", "user", "admin")


def _hash_password(password: str, salt: str) -> str:
    return hashlib.sha256(f"{salt}:{password}".encode("utf-8")).hexdigest()


class User:
    """One account."""

    __slots__ = ("username", "role", "_salt", "_password_hash")

    def __init__(self, username: str, password: str, role: str = "user") -> None:
        if role not in ROLES:
            raise AuthorizationError(f"unknown role {role!r}")
        self.username = username
        self.role = role
        self._salt = secrets.token_hex(8)
        self._password_hash = _hash_password(password, self._salt)

    def check_password(self, password: str) -> bool:
        return secrets.compare_digest(
            self._password_hash, _hash_password(password, self._salt)
        )

    def set_password(self, password: str) -> None:
        self._salt = secrets.token_hex(8)
        self._password_hash = _hash_password(password, self._salt)

    # -- capability checks ----------------------------------------------------

    @property
    def is_guest(self) -> bool:
        return self.role == "guest"

    @property
    def can_download(self) -> bool:
        """Guests cannot download datasets."""
        return self.role in ("user", "admin")

    @property
    def can_upload_code(self) -> bool:
        """Guests cannot upload post-processing codes."""
        return self.role in ("user", "admin")

    @property
    def can_manage_users(self) -> bool:
        return self.role == "admin"

    def can_run_operation(self, operation) -> bool:
        """Guests are limited to operations flagged guest.access."""
        if self.is_guest:
            return bool(operation.guest_access)
        return True

    def can_upload(self, upload) -> bool:
        """Guests upload code only where the XUIS flags guest.access."""
        return self.can_upload_code or bool(upload.guest_access)

    def __repr__(self) -> str:
        return f"User({self.username!r}, role={self.role})"


class UserManager:
    """Account store with the paper's default guest account."""

    def __init__(self, with_guest: bool = True) -> None:
        self._users: dict[str, User] = {}
        # the admin user-management page and concurrent logins touch the
        # store from multiple request threads
        self._lock = threading.Lock()
        if with_guest:
            self.add_user("guest", "guest", role="guest")

    def add_user(self, username: str, password: str, role: str = "user") -> User:
        with self._lock:
            if username in self._users:
                raise AuthorizationError(f"user {username!r} already exists")
            user = User(username, password, role)
            self._users[username] = user
            return user

    def remove_user(self, username: str) -> None:
        if username == "guest":
            raise AuthorizationError("the guest account cannot be removed")
        with self._lock:
            if username not in self._users:
                raise AuthenticationError(f"no such user {username!r}")
            del self._users[username]

    def authenticate(self, username: str, password: str) -> User:
        user = self._users.get(username)
        if user is None or not user.check_password(password):
            raise AuthenticationError("bad username or password")
        return user

    def user(self, username: str) -> User:
        try:
            return self._users[username]
        except KeyError:
            raise AuthenticationError(f"no such user {username!r}") from None

    def has_user(self, username: str) -> bool:
        return username in self._users

    def usernames(self) -> list[str]:
        return sorted(self._users)

    def set_role(self, username: str, role: str) -> None:
        if role not in ROLES:
            raise AuthorizationError(f"unknown role {role!r}")
        user = self.user(username)
        if user.username == "guest" and role != "guest":
            raise AuthorizationError("the guest account stays a guest")
        user.role = role
