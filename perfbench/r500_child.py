"""The known-fault op of paper_fullmatch, run in its own process.

``python3 r500_child.py SEED NBYTES CAP`` caps its own address space at
CAP bytes (and disables core files), then prints ``plan=<summary>`` and
the verdict of ``fullmatch(plan="auto")`` of r_500 on an accepted text of
NBYTES bytes.  The parent reads the exit status and the verdict.
"""

import os
import resource
import sys

if __name__ == "__main__":
    _cap = int(sys.argv[3])
    resource.setrlimit(resource.RLIMIT_AS, (_cap, _cap))
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import gen  # noqa: E402
from repro import compile_pattern, resolve_plan  # noqa: E402


def main() -> int:
    seed, nbytes = int(sys.argv[1]), int(sys.argv[2])
    text = gen.rn_text(np.random.default_rng(seed), 500, nbytes)
    m = compile_pattern(gen.rn_source(500))
    print("plan=" + resolve_plan("auto", "fullmatch", len(text), subject=m).summary(),
          flush=True)
    print(m.fullmatch(text, plan="auto"), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
