"""Set-up probe: time from a fresh interpreter to ready.

Ready means every module the workloads drive is imported and one call each
of qpoch, theta and qpoch_ratio has returned.  Prints the seconds taken.
"""

import time

T0 = time.perf_counter()

import qkzhyper.suites  # noqa: E402,F401  imports every module the workloads drive
from qkzhyper.numkernel import qpoch, qpoch_ratio, theta  # noqa: E402


def ready():
    qpoch(0.3 + 0.1j, 0.2)
    theta(0.7 + 0.2j, 0.2)
    qpoch_ratio(0.5, 0.6 + 0.1j, 0.2)


if __name__ == "__main__":
    ready()
    print(repr(time.perf_counter() - T0))
