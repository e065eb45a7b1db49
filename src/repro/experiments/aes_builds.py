"""One build per AES variant, shared by E1-E3 (paper, Section 6).

The paper's optimization sweep (E2) and its code-size comparison (E3)
report one set of builds: the encryption-only C port under each
compiler configuration, plus the hand assembly.  Compiling is
deterministic, so :data:`BUILDS` builds each variant once per process
and every experiment loads that build onto a fresh :class:`Board`.

The table also keeps each variant's measured runs, so a later
experiment can read a run instead of repeating it.  Cycles per block
depend on the data (a block's cycles are not the run's mean), so a run
answers only for a workload that is a prefix of its own; see
:meth:`repro.experiments.e1_aes.AesMeasurement.prefix`.  A run made
under a :class:`~repro.obs.profile.CycleProfiler` also keeps the
profiler's rows at each key boundary, so it answers for a profiled
workload of whole keys too (E1's baseline run holds E2's).  The table
holds builds, measurements and plain rows, never a board or a
profiler.
"""

from __future__ import annotations

from repro.dync.compiler import Compilation
from repro.rabbit.asm import Assembly
from repro.rabbit.board import Board
from repro.rabbit.programs.aes_asm import AesAsm, build_aes_asm
from repro.rabbit.programs.aes_c import AesC, build_aes_c

#: The hand assembly's key; every other key is the C port's options.
ASSEMBLY = "hand assembly"


class AesBuilds:
    """Builds keyed by variant (the C port's
    :class:`~repro.dync.compiler.CompilerOptions`, or :data:`ASSEMBLY`),
    and the runs measured on them."""

    def __init__(self):
        self._builds: dict = {}
        self._runs: dict = {}

    def build(self, variant) -> Compilation | Assembly:
        """The variant's build, made on first use."""
        build = self._builds.get(variant)
        if build is None:
            if variant == ASSEMBLY:
                build = build_aes_asm(include_decrypt=False)
            else:
                build = build_aes_c(variant, include_decrypt=False)
            self._builds[variant] = build
        return build

    def load(self, variant) -> AesC | AesAsm:
        """The variant's build on a fresh board."""
        if variant == ASSEMBLY:
            return AesAsm(Board(), self.build(variant))
        return AesC(Board(), self.build(variant))

    def keep(self, variant, measurement, profiles=()) -> None:
        """Remember a run of ``variant`` for :meth:`measured`, and for
        :meth:`profiled` its ``profiles``: one list of
        :meth:`~repro.obs.profile.CycleProfiler.report_rows` per key,
        those of the run's first ``k`` keys at index ``k - 1``."""
        workload = (measurement.keys, measurement.blocks_per_key)
        self._runs.setdefault(variant, {})[workload] = (
            measurement, tuple(_copy(rows) for rows in profiles))

    def measured(self, variant, keys: int, blocks_per_key: int):
        """A kept run of ``variant`` cut to the workload, or ``None``
        when no kept run has that workload as a prefix."""
        for run, _profiles in self._runs.get(variant, {}).values():
            prefix = run.prefix(keys, blocks_per_key)
            if prefix is not None:
                return prefix
        return None

    def profiled(self, variant, keys: int, blocks_per_key: int):
        """``(run, rows)``: a kept run of ``variant`` cut to the
        workload, and the profile rows it recorded there; ``None`` when
        no kept run recorded rows for exactly that workload."""
        for run, profiles in self._runs.get(variant, {}).values():
            if (run.blocks_per_key == blocks_per_key
                    and 0 < keys <= len(profiles)):
                return (run.prefix(keys, blocks_per_key),
                        _copy(profiles[keys - 1]))
        return None


def _copy(rows: list[dict]) -> list[dict]:
    """Rows no caller shares with the table (rows are plain dicts)."""
    return [dict(row) for row in rows]


#: The process's one table; E1-E3 read it.
BUILDS = AesBuilds()

