"""reprolint — project-invariant static analysis for this repo.

Run it over the source tree::

    python -m tools.reprolint src/

Four checkers, each guarding a protocol the repo has shipped (and in
two cases, fixed) bugs against — see ``docs/invariants.md`` for the
checker → protocol → motivating-PR table:

=================  ====================================================
checker            invariant
=================  ====================================================
env-discipline     no raw ``os.environ`` access outside
                   ``repro/config.py``
seqlock-epoch      catalog column writes stay inside the ``_write_seq``
                   odd window and bump epochs before release
shm-lifecycle      every SharedMemory segment is closed and unlinked
                   (or explicitly handed off) on all paths
lock-order         nested lock acquisitions follow the declared
                   hierarchy in ``repro/lockdep.py``
=================  ====================================================
"""

from tools.reprolint.base import (
    Finding,
    Project,
    SourceFile,
    all_checkers,
    collect_files,
    findings_json,
    iter_cases,
    run,
    run_case,
)

__all__ = [
    "Finding",
    "Project",
    "SourceFile",
    "all_checkers",
    "collect_files",
    "findings_json",
    "iter_cases",
    "run",
    "run_case",
]
