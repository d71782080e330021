"""Tests for the applet-style interactive slice browser."""

import base64
import re

import pytest

from repro.turbulence import build_turbulence_archive

COLID = "RESULT_FILE.DOWNLOAD_RESULT"


@pytest.fixture(scope="module")
def archive():
    return build_turbulence_archive(n_simulations=1, timesteps=1, grid=6)


@pytest.fixture
def engine(archive, tmp_path):
    return archive.make_engine(str(tmp_path / "sb"))


@pytest.fixture
def row(archive):
    return archive.result_rows()[0]


class TestSliceBrowser:
    def test_produces_single_html_page(self, engine, row):
        result = engine.invoke("SliceBrowser", COLID, row, {"type": "u"})
        assert list(result.outputs) == ["browser.html"]
        html = result.outputs["browser.html"].decode()
        assert "<script>" in html
        assert 'type="range"' in html
        assert "Grid 6 x 6 x 6" in html

    def test_one_embedded_slice_per_x(self, engine, row):
        result = engine.invoke("SliceBrowser", COLID, row, {"type": "p"},
                               use_cache=False)
        html = result.outputs["browser.html"].decode()
        embedded = re.findall(r'"([A-Za-z0-9+/=]{40,})"', html)
        assert len(embedded) == 6  # nx slices

    def test_slices_are_valid_pgms(self, engine, row):
        result = engine.invoke("SliceBrowser", COLID, row, {"type": "w"},
                               use_cache=False)
        html = result.outputs["browser.html"].decode()
        embedded = re.findall(r'"([A-Za-z0-9+/=]{40,})"', html)
        for blob in embedded:
            pgm = base64.b64decode(blob)
            assert pgm.startswith(b"P5\n6 6\n255\n")
            assert len(pgm) == len(b"P5\n6 6\n255\n") + 36

    def test_first_slice_matches_getimage(self, engine, row):
        """The browser's x0 image uses the same normalisation domain as the
        whole field, so it differs from GetImage's per-slice scaling — but
        both must be plausible renderings (same shape, same header)."""
        browser = engine.invoke("SliceBrowser", COLID, row, {"type": "u"},
                                use_cache=False)
        image = engine.invoke("GetImage", COLID, row,
                              {"slice": "x0", "type": "u"}, use_cache=False)
        html = browser.outputs["browser.html"].decode()
        first = base64.b64decode(re.findall(r'"([A-Za-z0-9+/=]{40,})"', html)[0])
        assert first[:11] == image.outputs["slice.pgm"][:11]

    def test_guest_may_run_it(self, engine, archive, row):
        guest = archive.users.user("guest")
        result = engine.invoke("SliceBrowser", COLID, row, {"type": "u"},
                               user=guest, use_cache=False)
        assert "browser.html" in result.outputs

    def test_served_through_portal_as_html(self, archive, tmp_path):
        from repro import EasiaApp

        engine = archive.make_engine(str(tmp_path / "portal-sb"))
        app = EasiaApp(
            archive.db, archive.linker, archive.document, archive.users, engine
        )
        session = app.login("guest", "guest")
        response = app.post(
            "/operation/run",
            {"name": "SliceBrowser", "colid": COLID, "type": "v",
             "key_FILE_NAME": "ts0000.turb",
             "key_SIMULATION_KEY": archive.simulation_keys[0]},
            session_id=session,
        )
        assert response.content_type == "text/html"
        assert b"Interactive slice browser" in (
            response.body if isinstance(response.body, bytes)
            else response.body.encode()
        )

    def test_rejects_non_turb_data(self, engine, archive):
        from repro.errors import OperationError
        from repro.sqldb.types import DatalinkValue

        server = archive.servers[0]
        server.put("/data/not_turb.bin", b"garbage")
        fake_row = {
            COLID: DatalinkValue(f"http://{server.host}/data/not_turb.bin"),
            "RESULT_FILE.FILE_FORMAT": "TURB",
            "FILE_FORMAT": "TURB",
        }
        with pytest.raises((OperationError, ValueError)):
            engine.invoke("SliceBrowser", COLID, fake_row, {"type": "u"})
