"""Set-up probe: import normalvo and get the first frame ready for the estimator.

Usage: python3 benchmarks/setup_probe.py SRC (dataset DIR | config FILE)

Prints ``ready`` once the first frame could be handed to ``run_sequence``
(for ``dataset``: after ``load_dataset``) or, for ``config``, once the
experiment config is loaded. The parent process times from spawning this
script to reading that line, which covers interpreter start, the package
import and the input load. A second line then gives the durations of a few
calibration probes run right afterwards, in nanoseconds, so that the parent
can scale the set-up time by the machine's speed at that moment.
"""

import sys

sys.path.insert(0, sys.argv[1])

import normalvo  # noqa: E402

if sys.argv[2] == "dataset":
    next(iter(normalvo.load_dataset(sys.argv[3]).frames))
else:
    normalvo.load_config(sys.argv[3])
print("ready", flush=True)

from calibration import probe_ns  # noqa: E402

print(" ".join(str(probe_ns()) for _ in range(5)), flush=True)
