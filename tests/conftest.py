"""Shared test configuration: hypothesis settings profiles.

Every property-test module used to carry its own ``@settings(...)``
boilerplate. The profiles here centralize that:

* ``dev`` (default) — fast feedback; the example counts the suite was
  tuned at.
* ``ci`` — thorough; more examples per property for scheduled or
  pre-release runs.

Select with ``HYPOTHESIS_PROFILE=ci pytest ...``. Individual tests may
still override ``max_examples`` locally where a property is expensive
by construction; ``deadline=None`` comes from the profile (cost-model
evaluations have long cold-start outliers that trip per-example
deadlines).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

settings.register_profile("dev", max_examples=30, deadline=None)
settings.register_profile("ci", max_examples=150, deadline=None)
settings.load_profile(
    os.environ.get("HYPOTHESIS_PROFILE", "dev")  # repro: noqa(REP006)
)


@pytest.fixture
def user_error(capsys):
    """Run ``repro.cli.main(argv)`` expecting a user error.

    A user error exits 2 with one ``error:`` line on stderr and no
    traceback; the fixture returns that line.
    """
    from repro.cli import main

    def run(argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return err

    return run
