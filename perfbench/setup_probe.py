"""Set-up probe: a fresh interpreter imports `ultgen.cli` and builds its
argument parser, as every CLI call does first.

    python3 perfbench/setup_probe.py

Host speed is sampled from the first line on (see hostspeed.py). Prints
"SLOWDOWN SPENT_S" on stdout; the caller times the whole process.
"""

import hostspeed

sampler = hostspeed.Sampler()
sampler.start()

import ultgen.cli as cli  # noqa: E402

cli.build_parser()
sampler.stop()
print(sampler.slowdown(), sampler.spent_s())
