"""Checks applied to every test."""

import contextlib
import threading
import warnings

import pytest

# hypothesis's pytest plugin imports this module when a @given test fails, and
# the import warns (libcst uses mypy_extensions.TypedDict). Under the
# "error" warning filter that warning ends the session before any other test
# runs; importing the module once here, with the warning ignored, keeps every
# failure reported.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    """Fail a test that leaves running a thread that was not running before it."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert not left, f"threads still running after the test: {left}"
