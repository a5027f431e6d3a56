"""Importing the library does not load the stdlib HTTP and email stacks.

No module in ``repro`` serves or fetches over HTTP, so a fresh
interpreter that imports the observability package and the modules the
serving, parallel-evaluation and GA paths start from must leave
``http.server``, ``http.client`` and ``email`` unloaded.  They cost tens
of milliseconds and a few MiB in every process that imports them.
"""

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBE = """
import sys
import repro.obs, repro.serve.service, repro.eval.parallel, repro.ga.fitness
print(",".join(sorted(
    m for m in ("http.server", "http.client", "email") if m in sys.modules
)))
"""


def test_library_imports_leave_http_and_email_unloaded():
    env = dict(os.environ)
    src = os.path.join(REPO, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    assert result.stdout.strip() == ""
