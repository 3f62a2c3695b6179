"""Set-up cost of one CLI call, in a fresh interpreter: import ``tvflow.cli``
and build its parser (``main(["--version"])`` builds it and exits 0).
Prints the elapsed seconds and the imported package's path."""

import contextlib
import io
import sys
import time

t0 = time.perf_counter()
import tvflow.cli  # noqa: E402  (the import is what is timed)

with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = tvflow.cli.main(["--version"])
    except SystemExit as exc:
        code = exc.code
elapsed = time.perf_counter() - t0
if code not in (0, None):
    sys.exit(f"tvflow --version exited {code}")
print(repr(elapsed), tvflow.__file__)
