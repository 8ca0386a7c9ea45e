import os

import pytest


@pytest.fixture(autouse=True, scope="session")
def _isolated_cohen_cache(tmp_path_factory):
    # keep the cohen verb's H(r, N) disk cache out of the working tree during tests
    os.environ["SK_CACHE_DIR"] = str(tmp_path_factory.mktemp("skcache"))
    yield
