"""The one order-preserving fan-out behind every ``--jobs N`` flag."""

import time

from repro.fanout import ordered_map


def _slow_square(n: int) -> int:
    """Later tasks finish first, so completion order != submission order."""
    time.sleep(0.01 * (5 - n))
    return n * n


def test_in_process_accepts_a_closure():
    offset = 10
    # A closure cannot be pickled: jobs=1 must never reach a pool.
    assert ordered_map(lambda n: n + offset, [1, 2, 3], 1) == [11, 12, 13]


def test_single_task_stays_in_process_at_any_job_count():
    assert ordered_map(lambda n: -n, [7], 4) == [-7]


def test_results_come_back_in_submission_order():
    tasks = list(range(6))
    assert ordered_map(_slow_square, tasks, 2) == [n * n for n in tasks]
