"""Shared fixtures."""

import pytest

from discvar.errors import NoConvergence, SingularJacobian


@pytest.fixture
def root_finder_log(monkeypatch):
    """Install counting wrappers on a module's ``newton`` and
    ``levenberg_marquardt``, the names its ``solve`` must look up when it
    runs (the benchmark's spans wrap the same names).  Returns ``install``;
    ``install(module)`` gives the list of (name, report) pairs, one per
    attempt, in call order."""
    log = []

    def install(module):
        for name in ("newton", "levenberg_marquardt"):
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                try:
                    point, report = _original(*args, **kwargs)
                except (NoConvergence, SingularJacobian) as exc:
                    log.append((_name, exc.report))
                    raise
                log.append((_name, report))
                return point, report

            monkeypatch.setattr(module, name, counted)
        return log

    return install
