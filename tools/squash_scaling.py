"""Wall seconds and forward step calls of the squashing engine at growing sizes.

    python3 tools/squash_scaling.py [--stages 30,60,120,240] [--horizons 150,300,600,1200]

For each squash config, prints one line per part and size:

- `markers`: `squash_markers` at each stage count;
- `forward`: `squash_forward` at each horizon with count 4 and the
  instance `Point.from_seed(0)`, on markers through stage horizon + 6 as
  `wred squash` computes them (not timed).

`wall_s` is the part's wall time and `forward_steps` how many times the
witness's forward step ran in it, its evaluations for the read map
included.  Run from the root of a checkout; the package is imported from
its src/.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wred.catalog import SQUASH_CONFIGS  # noqa: E402
from wred.combinators import squash_forward, squash_markers  # noqa: E402
from wred.kernel import Point  # noqa: E402

def counted(name: str):
    """A fresh config of `name`, and the list its forward step counts into."""
    cfg = SQUASH_CONFIGS[name]()
    forward, calls = cfg.witness.forward, [0]
    plain = forward.step

    def step(ctx, x):
        calls[0] += 1
        return plain(ctx, x)

    forward.step = step
    return cfg, calls


def timed(run) -> float:
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def rows(stages: list[int], horizons: list[int]):
    """(part, config, size, wall_s, forward_steps) for every measurement."""
    for name in sorted(SQUASH_CONFIGS):
        for n in stages:
            cfg, calls = counted(name)
            wall = timed(lambda: squash_markers(cfg, n))
            yield "markers", name, n, wall, calls[0]
        for h in horizons:
            cfg, calls = counted(name)
            markers = squash_markers(cfg, h + 6)
            calls[0] = 0
            wall = timed(lambda: squash_forward(cfg, markers, Point.from_seed(0), h, count=4))
            yield "forward", name, h, wall, calls[0]


def sizes(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--stages", type=sizes, default=[30, 60, 120, 240],
                        help="comma-separated marker stage counts")
    parser.add_argument("--horizons", type=sizes, default=[150, 300, 600, 1200],
                        help="comma-separated forward horizons")
    args = parser.parse_args(argv)
    print(f"{'part':8s} {'config':16s} {'size':>6s} {'wall_s':>8s} {'forward_steps':>14s}")
    for part, name, size, wall, steps in rows(args.stages, args.horizons):
        print(f"{part:8s} {name:16s} {size:6d} {wall:8.3f} {steps:14d}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
