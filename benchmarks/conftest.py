"""Shared fixtures for the benchmark harness."""

import pytest

from repro.bench import reporting
from repro.turbulence import build_turbulence_archive


@pytest.fixture(scope="session", autouse=True)
def _uncaptured_tables(pytestconfig):
    """Route PaperTable output around pytest's capture so the regenerated
    paper tables appear on the terminal (and in tee'd transcripts)."""
    capman = pytestconfig.pluginmanager.getplugin("capturemanager")

    def writer(text: str) -> None:
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(text, flush=True)
        else:
            print(text, flush=True)

    previous = reporting.set_emitter(reporting.Emitter(writer))
    yield
    reporting.set_emitter(previous)


@pytest.fixture(scope="session")
def archive():
    """One mid-sized turbulence archive shared across benchmark modules."""
    return build_turbulence_archive(
        n_simulations=4, timesteps=3, grid=16, n_file_servers=2
    )


@pytest.fixture(scope="session")
def sandbox_root(tmp_path_factory):
    return str(tmp_path_factory.mktemp("bench-sandbox"))


@pytest.fixture(scope="session")
def engine(archive, sandbox_root):
    return archive.make_engine(sandbox_root)
