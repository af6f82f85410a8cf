"""Tiny registered job runners used by the runner tests.

They live in a real module (not a test body) because pooled workers
resolve runners by re-importing the module recorded on the job — a
closure defined inside a test function could never cross the process
boundary.
"""

import time

from repro.parallel import sim_job


@sim_job("test-square")
def square(x: int, delay: float = 0.0) -> int:
    """Square ``x``; ``delay`` lets tests scramble completion order."""
    if delay:
        time.sleep(delay)
    return x * x


@sim_job("test-fail")
def fail(x: int) -> int:
    raise ValueError(f"boom on {x}")


@sim_job("test-seeded")
def seeded(label: str, derived_seed: int) -> int:
    """Echo the injected per-job seed back to the caller."""
    return derived_seed


@sim_job("test-flaky")
def flaky(counter_file: str, fail_times: int) -> int:
    """Fail the first ``fail_times`` calls, then succeed.

    Attempts are counted in a file so the count survives process
    boundaries (a pooled job runs in a worker, not the test process).
    """
    import os

    count = 0
    if os.path.exists(counter_file):
        with open(counter_file, "r", encoding="utf-8") as handle:
            count = int(handle.read() or 0)
    count += 1
    with open(counter_file, "w", encoding="utf-8") as handle:
        handle.write(str(count))
    if count <= fail_times:
        raise ValueError(f"flaky failure #{count}")
    return count


@sim_job("test-from-file")
def from_file(value_file: str) -> int:
    """Return the integer currently stored in ``value_file``.

    Stands in for "what the current code computes": rewriting the file
    between runs simulates a code edit that changes the result without
    changing the cache key.
    """
    with open(value_file, "r", encoding="utf-8") as handle:
        return int(handle.read())


@sim_job("test-interrupt")
def interrupt(after: float = 0.0) -> None:
    """Simulate the user hitting Ctrl-C inside a worker."""
    if after:
        time.sleep(after)
    raise KeyboardInterrupt
