"""Fixtures shared by the test modules."""

import pytest

from rssfield import recursive


class PinnedHyper:
    """Stand-in for ``recursive.hyper_for`` that re-estimates nothing: each step
    takes the pinned hyper-parameters and the carried centroid. ``calls``
    counts the steps that read it."""

    def __init__(self, hyper):
        self.hyper = hyper
        self.calls = 0

    def __call__(self, snapshot, config, centroid):
        self.calls += 1
        return self.hyper, centroid


@pytest.fixture
def pin_hyper(monkeypatch):
    """pin_hyper(hyper) pins the hyper-parameters of every later rgp_step and
    returns the PinnedHyper. A test asserts its ``calls``, so a rename or an
    import change in the recursion cannot silently un-pin it."""

    def pin(hyper):
        fake = PinnedHyper(hyper)
        monkeypatch.setattr(recursive, "hyper_for", fake)
        return fake

    return pin
