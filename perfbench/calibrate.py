"""Host-speed calibration: a fresh process that only starts the interpreter
and imports numpy and scipy.linalg.

That is the cold start every wavelqr command pays before its own code runs,
and nothing in it depends on the checkout's src/.  Its wall time therefore
follows only the speed of the host, which on a shared machine drifts by tens
of percent over minutes; run.py scales every timing by it (README.md,
"Host-speed calibration").
"""

import numpy  # noqa: F401
import scipy.linalg  # noqa: F401
