"""The benchmark's traced runs wrap discvar callables by name
(perfbench/spans.py): every name they look up must exist."""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans

    yield spans
    sys.modules.pop("spans", None)


def test_every_traced_callable_exists(spans):
    targets = spans._targets()
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in targets
               if not callable(getattr(owner, attr, None))]
    assert missing == []

