import os

import pytest

from segreopt.cli import ENV_PREFIX


@pytest.fixture(autouse=True)
def _no_config_environment(monkeypatch):
    # the CLI reads every SEGREOPT_ variable, so the shell that runs the
    # tests must not change the configurations they see
    for var in list(os.environ):
        if var.startswith(ENV_PREFIX):
            monkeypatch.delenv(var)
