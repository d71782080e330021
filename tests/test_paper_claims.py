"""The paper's headline claims, verified in one place.

The benchmark harness regenerates every table/figure with timing; this
module is the claims *ledger* for plain ``pytest tests/`` runs — each test
re-verifies one quantitative or behavioural claim end to end, fast.
"""

import pytest

from repro.netsim import MBYTE, PAPER_RATES, format_duration, transfer_seconds
from repro.turbulence import build_turbulence_archive

COLID = "RESULT_FILE.DOWNLOAD_RESULT"


@pytest.fixture(scope="module")
def archive():
    return build_turbulence_archive(n_simulations=2, timesteps=2, grid=12)


@pytest.fixture(scope="module")
def engine(archive, tmp_path_factory):
    return archive.make_engine(str(tmp_path_factory.mktemp("claims")))


class TestTable1Claim:
    """Claim: the measured transfer times make central archiving
    infeasible (Table 1)."""

    PAPER = {
        ("day", "to_southampton"): ("45m20s", "4h50m08s"),
        ("day", "from_southampton"): ("30m38s", "3h16m02s"),
        ("evening", "to_southampton"): ("19m32s", "2h05m03s"),
        ("evening", "from_southampton"): ("5m51s", "37m23s"),
    }

    def test_all_eight_cells(self):
        for key, (small, large) in self.PAPER.items():
            rate = PAPER_RATES[key]
            assert format_duration(transfer_seconds(85 * MBYTE, rate)) == small
            assert format_duration(transfer_seconds(544 * MBYTE, rate)) == large


class TestUnifiedStorageClaim:
    """Claim: the database stores small metadata and huge files in a
    unified way, keeping security, recovery and integrity."""

    def test_metadata_and_files_in_one_query_surface(self, archive):
        row = archive.db.execute(
            "SELECT TITLE, FILE_SIZE, DOWNLOAD_RESULT "
            "FROM SIMULATION s JOIN RESULT_FILE r "
            "ON s.SIMULATION_KEY = r.SIMULATION_KEY LIMIT 1"
        ).first()
        title, size, link = row
        assert isinstance(title, str)
        assert link.size == size
        assert link.token is not None  # security via READ PERMISSION DB

    def test_referential_integrity_covers_files(self, archive):
        from repro.errors import FileLockedError

        value = archive.result_rows()[0][COLID]
        server = archive.linker.server(value.host)
        with pytest.raises(FileLockedError):
            server.filesystem.delete(value.server_path)


class TestDataReductionClaim:
    """Claim: user-directed post-processing significantly reduces the data
    shipped back to the user."""

    def test_slicing_is_orders_of_magnitude_smaller(self, archive, engine):
        row = archive.result_rows()[0]
        result = engine.invoke(
            "GetImage", COLID, row, {"slice": "x1", "type": "u"}
        )
        assert result.reduction_factor > 100

    def test_dataset_never_crosses_network(self, archive, engine):
        served_before = [s.bytes_served for s in archive.servers]
        engine.invoke("FieldStats", COLID, archive.result_rows()[0],
                      use_cache=False)
        assert [s.bytes_served for s in archive.servers] == served_before


class TestDistributionClaim:
    """Claim: archiving where generated avoids the upload problem; many
    machines serve as file servers for a single database."""

    def test_local_archival_is_free(self):
        from repro.netsim import Network, SimClock, TransferEngine

        engine = TransferEngine(
            Network.paper_topology(), SimClock(start_hour=10.0)
        )
        record = engine.transfer("qmw.london", "qmw.london", 544 * MBYTE)
        assert record.seconds == 0.0 and record.wide_area_bytes == 0

    def test_many_servers_one_database(self, archive):
        hosts = {
            row[COLID].host for row in archive.result_rows()
        }
        assert len(hosts) == 2  # datasets genuinely spread
        # ...yet one database answers for all of them
        assert archive.db.execute(
            "SELECT COUNT(*) FROM RESULT_FILE"
        ).scalar() == len(archive.result_rows())


class TestSchemaDrivenClaim:
    """Claim: the interface is generated from the schema and usable
    without database or web expertise."""

    def test_default_interface_from_catalog_alone(self, archive):
        from repro.xuis import generate_default_xuis, validate_xuis

        document = generate_default_xuis(archive.db)
        assert validate_xuis(document, archive.db) == []
        assert {t.name for t in document.tables} >= {
            "AUTHOR", "SIMULATION", "RESULT_FILE",
            "CODE_FILE", "VISUALISATION_FILE",
        }

    def test_browsing_follows_referential_integrity(self, archive):
        document = archive.document
        # FK browsing from SIMULATION to AUTHOR
        assert document.column("SIMULATION.AUTHOR_KEY").fk is not None
        # PK browsing from SIMULATION into its three file tables
        refby = set(document.column("SIMULATION.SIMULATION_KEY").pk.refby)
        assert refby == {
            "RESULT_FILE.SIMULATION_KEY",
            "CODE_FILE.SIMULATION_KEY",
            "VISUALISATION_FILE.SIMULATION_KEY",
        }


class TestGuestRestrictionClaims:
    """Claim: guest users cannot download datasets, cannot upload codes,
    and are limited in the operations they can run."""

    def test_all_three_restrictions(self, archive, engine):
        from repro.errors import AuthorizationError
        from repro.operations import pack_code_archive

        guest = archive.users.user("guest")
        row = archive.result_rows()[0]
        assert not guest.can_download
        with pytest.raises(AuthorizationError):
            engine.run_upload(
                COLID, row, pack_code_archive({"X.py": b"pass"}), "X",
                user=guest,
            )
        with pytest.raises(AuthorizationError):  # restricted
            engine.invoke("Subsample", COLID, row, {"factor": "2"}, user=guest)
        # guest.access="true"
        assert engine.invoke("GetImage", COLID, row, user=guest).outputs
