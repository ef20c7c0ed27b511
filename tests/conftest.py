import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from cmcert import enclosure


@pytest.fixture
def work_estimate(monkeypatch):
    """estimate(call): the work estimate of call's first budget check, read
    from the refusal it raises with the budget at -1, before any work."""
    def estimate(call):
        with monkeypatch.context() as mp:
            mp.setattr(enclosure, "WORK_MAX", -1)
            with pytest.raises(ValueError, match=r"^work ") as refused:
                call()
        return int(str(refused.value).split()[2])

    return estimate
