"""Order-preserving process fan-out for the ``--jobs N`` command lines.

The fault campaign, the scaling curve, the bench snapshot and the
dclint engine all shard independent, already-seeded tasks the same way:
:func:`ordered_map` is that one way.  ``Pool.map`` returns results in
submission order, so a merge over them is byte-identical to the
sequential run at any job count.
"""

from __future__ import annotations


def ordered_map(worker, tasks: list, jobs: int) -> list:
    """``[worker(task) for task in tasks]``, fanned out over ``jobs``
    processes.

    ``jobs <= 1`` (or a single task) stays in-process -- no pool, no
    pickling, so ``worker`` may be a closure there.  Otherwise ``worker``
    must be a module-level function and the tasks picklable.
    """
    if jobs <= 1 or len(tasks) <= 1:
        return [worker(task) for task in tasks]
    import multiprocessing

    with multiprocessing.Pool(min(jobs, len(tasks))) as pool:
        return pool.map(worker, tasks)
