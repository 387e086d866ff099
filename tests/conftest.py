import pathlib

import pytest

from homsuper.corpus import corpus

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
CORPUS_DIR = REPO_ROOT / "corpus"


@pytest.fixture(scope="session")
def algebras():
    return corpus()


@pytest.fixture(scope="session")
def corpus_dir():
    return CORPUS_DIR


def pytest_generate_tests(metafunc):
    if "corpus_name" in metafunc.fixturenames:
        metafunc.parametrize("corpus_name", sorted(corpus()))


def pytest_addoption(parser):
    parser.addoption("--sweep", action="store_true",
                     help="also run the larger sweeps marked 'sweep'")


def pytest_configure(config):
    config.addinivalue_line("markers", "sweep: larger sweep, run only with --sweep")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--sweep"):
        return
    deselected = [item for item in items if item.get_closest_marker("sweep")]
    if deselected:
        config.hook.pytest_deselected(items=deselected)
        items[:] = [item for item in items if not item.get_closest_marker("sweep")]
