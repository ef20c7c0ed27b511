import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from cmcert import cmdegree, enclosure


@pytest.fixture
def work_estimate(monkeypatch):
    """estimate(call): the work estimate of call's first budget check, read
    from the refusal it raises with the budget at -1, before any work.  A
    point scan refuses at its first point there, so its estimate is read as
    the running total over all its points."""
    def scan_total(points, price, flags, total=0):
        enclosure.check_work(flags, total + sum(
            price(enclosure.to_fraction(t)) for t in points))

    def estimate(call):
        with monkeypatch.context() as mp:
            mp.setattr(enclosure, "WORK_MAX", -1)
            mp.setattr(cmdegree, "scan_points", scan_total)
            with pytest.raises(ValueError, match=r"^work ") as refused:
                call()
        return int(str(refused.value).split()[2])

    return estimate
