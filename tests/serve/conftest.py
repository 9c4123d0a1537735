from __future__ import annotations

import pytest

from repro.core import job as job_module
from repro.serve import online as online_module
from repro.serve import server as server_module


@pytest.fixture
def field_checks(monkeypatch) -> list[tuple]:
    """Arguments of every ``check_job_fields`` call, wherever it is made:
    the JobSpec constructor and any module that imported the function."""
    calls = []
    check = job_module.check_job_fields

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(job_module, "check_job_fields", counted)
    for module in (online_module, server_module):
        monkeypatch.setattr(module, "check_job_fields", counted, raising=False)
    return calls
