"""Print the time, in reference seconds (see refclock.py), that this fresh
process takes to import wred, wred.catalog and wred.harness and build
ENTRIES and the SQUASH_CONFIGS.  Run by bench/run.py with src/ on
PYTHONPATH.  The standard-library modules the reference clock uses are
imported before the clock starts."""

from refclock import RefClock

with RefClock(interval=0.01) as clock:
    import wred  # noqa: F401
    from wred.catalog import ENTRIES, SQUASH_CONFIGS
    from wred.harness import run_suite  # noqa: F401

    configs = [build() for build in SQUASH_CONFIGS.values()]
if not (ENTRIES and configs):
    raise SystemExit("wred built no catalog entries or squash configs")
print(repr(clock.ref_s))
