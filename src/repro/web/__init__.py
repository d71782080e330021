"""The schema-driven web interface.

Generates the paper's QBE search forms and hyperlinked result tables from
the XUIS, enforces the guest restrictions, and exposes the archive behind
servlet endpoints (:class:`EasiaApp`).

* :mod:`repro.web.http` — servlet container, sessions, responses,
* :mod:`repro.web.auth` — users, roles, guest limits,
* :mod:`repro.web.qbe` — Query-By-Example translation to SQL,
* :mod:`repro.web.forms` — query/operation/login form HTML,
* :mod:`repro.web.view` — one user's view of one table, its only reader,
* :mod:`repro.web.render` — result tables: hyperlinked cells, operations,
* :mod:`repro.web.app` — the assembled application.
"""

from repro.web.app import EasiaApp
from repro.web.auth import ROLES, User, UserManager
from repro.web.forms import (
    page,
    render_login_form,
    render_operation_form,
    render_query_form,
)
from repro.web.http import (
    Request,
    Response,
    Servlet,
    ServletContainer,
    Session,
    SessionManager,
    escape,
)
from repro.web.qbe import OPERATORS, QbeQuery, Restriction, build_query_from_params
from repro.web.render import CellRenderer, render_result_table, result_rows_as_dicts

__all__ = [
    "EasiaApp",
    "User",
    "UserManager",
    "ROLES",
    "CellRenderer",
    "render_result_table",
    "result_rows_as_dicts",
    "render_query_form",
    "render_operation_form",
    "render_login_form",
    "page",
    "QbeQuery",
    "Restriction",
    "OPERATORS",
    "build_query_from_params",
    "Request",
    "Response",
    "Servlet",
    "ServletContainer",
    "Session",
    "SessionManager",
    "escape",
]
