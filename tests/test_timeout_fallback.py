"""The conftest timeout fallback fails a test that overruns."""

import shutil
import subprocess
import sys
from pathlib import Path

SLOW_TEST = """
import time

def test_fast():
    pass

def test_slow():
    time.sleep(30)
"""


def test_slow_test_body_trips_the_fallback(tmp_path):
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path / "conftest.py")
    (tmp_path / "pytest.ini").write_text("[pytest]\ntimeout = 1\n")
    (tmp_path / "test_slow.py").write_text(SLOW_TEST)
    # -p no:timeout: exercise the fallback even where the plugin exists.
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:timeout",
         "-p", "no:cacheprovider", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=25,
    )
    assert completed.returncode == 1, completed.stdout
    assert "1 failed, 1 passed" in completed.stdout
    assert "Timeout: test exceeded 1 s" in completed.stdout
    assert "test_slow" in completed.stdout
