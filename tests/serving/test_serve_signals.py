"""``repro serve`` stops gracefully on SIGTERM and SIGINT.

The server runs in a subprocess started with SIGINT ignored, as a shell
starts a background job: the handlers must be the server's own, not the
disposition it inherited.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

_REPO = Path(__file__).resolve().parents[2]


def _start_server(tmp_path):
    environment = dict(os.environ)
    environment["PYTHONPATH"] = str(_REPO / "src")
    process = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
         "--cache", str(tmp_path / "cache")],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=environment,
        cwd=_REPO,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
    )
    lines = []
    for line in process.stdout:
        lines.append(line)
        if line.startswith("# serving on"):
            return process, lines
    process.kill()
    process.wait()
    pytest.fail("server exited before serving: " + "".join(lines))


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=["SIGTERM", "SIGINT"])
def test_signal_drains_and_exits_zero(tmp_path, signum):
    process, lines = _start_server(tmp_path)
    try:
        process.send_signal(signum)
        output, _ = process.communicate(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    output = "".join(lines) + output
    assert process.returncode == 0, output
    assert "# shutting down" in output
