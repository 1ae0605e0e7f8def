"""Per-test timeout for environments without pytest-timeout.

``pyproject.toml`` sets ``timeout = 120``.  pytest-timeout enforces it
where it is installed; without the plugin the option is inert and a
hung test never fails.  This fallback then enforces the same ceiling
with ``SIGALRM``: a test that overruns has every thread's stack dumped
by :mod:`faulthandler` and fails with a ``Timeout`` error.  It does
nothing while the plugin is active.
"""

import faulthandler
import signal
import sys

import pytest

_SECONDS = pytest.StashKey[int]()


def pytest_addoption(parser, pluginmanager):
    if not pluginmanager.hasplugin("timeout"):
        parser.addini("timeout", "per-test timeout in seconds", default="0")


def pytest_configure(config):
    if not config.pluginmanager.hasplugin("timeout") and hasattr(signal, "SIGALRM"):
        config.stash[_SECONDS] = int(float(config.getini("timeout") or 0))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item, nextitem):
    seconds = item.config.stash.get(_SECONDS, 0)
    if seconds <= 0:
        return (yield)

    def on_timeout(signum, frame):
        faulthandler.dump_traceback(file=sys.__stderr__)
        pytest.fail(f"Timeout: test exceeded {seconds} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, on_timeout)
    signal.alarm(seconds)
    try:
        return (yield)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
