"""E1-E3 share one build per AES variant and reuse each other's runs."""

import gc
import json
import weakref

import pytest

from repro.dync.compiler import CompilerOptions
from repro.experiments import e1_aes, e2_sweep, e3_size
from repro.experiments.aes_builds import ASSEMBLY, AesBuilds
from repro.experiments.e1_aes import AesMeasurement
from repro.experiments.e2_sweep import SWEEP
from repro.rabbit.programs import aes_asm, aes_c

BASELINE = CompilerOptions()


class _Counted:
    """A table (a fresh one by default) behind E1-E3, counting
    compiles, hand-assembly builds and loads, and holding a weak
    reference to every board loaded."""

    def __init__(self, monkeypatch, table=None):
        self.table = table or AesBuilds()
        self.compiles = 0
        self.assemblies = 0
        self.loads = 0
        self.boards = []
        for module in (e1_aes, e2_sweep, e3_size):
            monkeypatch.setattr(module, "BUILDS", self.table)
        compile_source = aes_c.compile_source
        assemble = aes_asm.assemble
        load = self.table.load

        def counted_compile(*args, **kwargs):
            self.compiles += 1
            return compile_source(*args, **kwargs)

        def counted_assemble(*args, **kwargs):
            self.assemblies += 1
            return assemble(*args, **kwargs)

        def counted_load(variant):
            self.loads += 1
            implementation = load(variant)
            self.boards.append(weakref.ref(implementation.board))
            return implementation

        monkeypatch.setattr(aes_c, "compile_source", counted_compile)
        monkeypatch.setattr(aes_asm, "assemble", counted_assemble)
        monkeypatch.setattr(self.table, "load", counted_load)


def _canonical(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def chain():
    """E1 -> E2 -> E3 in one process, on small workloads; E2 runs two
    blocks so its mean and its first block can differ."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        counted = _Counted(monkeypatch)
        e1_aes.run_e1(keys=1, blocks_per_key=1)
        loads_before_e2 = counted.loads
        e2 = e2_sweep.run_e2(keys=1, blocks_per_key=2)
        loads_before_e3 = counted.loads
        e3 = e3_size.run_e3(keys=1, blocks_per_key=1)
    return {"counted": counted, "e2": e2, "e3": e3,
            "e2_loads": loads_before_e3 - loads_before_e2,
            "e3_loads": counted.loads - loads_before_e3}


@pytest.fixture(scope="module")
def defaults():
    """E2 at its defaults after E1 at its defaults, and E2 alone, each
    on a fresh table."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        after = _Counted(monkeypatch)
        e1_aes.run_e1()
        loads_before_e2 = after.loads
        e2_after_e1 = e2_sweep.run_e2()
        after_loads = after.loads - loads_before_e2
    with pytest.MonkeyPatch.context() as monkeypatch:
        alone = _Counted(monkeypatch)
        e2_alone = e2_sweep.run_e2()
    return {"after": e2_after_e1, "after_loads": after_loads,
            "alone": e2_alone, "alone_loads": alone.loads}


class TestOneBuildPerVariant:
    def test_seven_compiles_and_one_assembly(self, chain):
        counted = chain["counted"]
        assert counted.compiles == len(SWEEP) == 7
        assert counted.assemblies == 1

    def test_e3_after_e2_runs_no_firmware(self, chain):
        assert chain["e3_loads"] == 0

    def test_e3_alone_matches_e3_after_e2(self, chain, monkeypatch):
        alone = _Counted(monkeypatch)
        result = e3_size.run_e3(keys=1, blocks_per_key=1)
        assert alone.loads == len(SWEEP) + 1
        assert _canonical(result) == _canonical(chain["e3"])

    def test_non_prefix_workload_measures_for_itself(self, chain,
                                                     monkeypatch):
        # (2, 1) interleaves a second key before E2's second block, so
        # no kept run is its prefix; the builds are still reused.
        again = _Counted(monkeypatch, chain["counted"].table)
        result = e3_size.run_e3(keys=2, blocks_per_key=1)
        assert again.loads == len(SWEEP) + 1
        assert again.compiles == again.assemblies == 0
        assert result.reproduced

    def test_table_holds_no_board(self, monkeypatch):
        """Nor a profiler: a kept run keeps plain rows."""
        counted = _Counted(monkeypatch)
        profilers = []

        class Watched(e1_aes.CycleProfiler):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                profilers.append(weakref.ref(self))

        monkeypatch.setattr(e1_aes, "CycleProfiler", Watched)
        e1_aes.run_e1(keys=1, blocks_per_key=1)
        e2_sweep.run_e2(keys=1, blocks_per_key=1)
        assert len(counted.boards) == 2 + len(SWEEP) - 1
        assert len(profilers) == 3      # E1's two, E2's all-on
        assert counted.table.measured(ASSEMBLY, 1, 1) is not None
        assert counted.table.profiled(BASELINE, 1, 1) is not None
        # A dead Board sits in reference cycles (CPU <-> block cache),
        # so only the cyclic collector frees it.
        gc.collect()
        assert all(board() is None for board in counted.boards)
        assert all(profiler() is None for profiler in profilers)


class TestE2ReadsE1sProfiledRun:
    def test_e2_after_e1_runs_six_variants(self, defaults):
        assert defaults["after_loads"] == len(SWEEP) - 1 == 6
        assert defaults["alone_loads"] == len(SWEEP) == 7

    def test_e2_after_e1_equals_e2_alone(self, defaults):
        assert defaults["after"].extra_tables
        assert _canonical(defaults["after"]) == _canonical(defaults["alone"])

    def test_a_run_of_other_blocks_per_key_does_not_answer(self, chain):
        # E1 ran one block per key; E2's two blocks are not its rows.
        assert chain["e2_loads"] == len(SWEEP)

    def test_rows_answer_only_at_a_key_boundary(self):
        table = AesBuilds()
        rows = [[{"routine": "a", "self cycles": k}] for k in (1, 2)]
        table.keep(BASELINE, TestPrefix.RUN, rows)
        run, kept = table.profiled(BASELINE, 1, 2)
        assert run.block_cycles == (10, 11) and kept == rows[0]
        assert table.profiled(BASELINE, 2, 2)[1] == rows[1]
        for keys, blocks_per_key in ((1, 1), (2, 1), (3, 2)):
            assert table.profiled(BASELINE, keys, blocks_per_key) is None
        assert table.measured(BASELINE, 1, 1) is not None
        # The table's rows are its own.
        kept[0]["self cycles"] = -1
        rows[1][0]["self cycles"] = -1
        assert table.profiled(BASELINE, 1, 2)[1][0]["self cycles"] == 1
        assert table.profiled(BASELINE, 2, 2)[1][0]["self cycles"] == 2


class TestDataDependence:
    def test_e3_reads_block_zero_not_the_mean(self, chain):
        """Cycles per block depend on the data: the baseline's first
        block differs from its two-block mean, and E3 reports the first
        block.  Reading E2's mean instead would fail here."""
        run = chain["counted"].table.measured(BASELINE, 1, 2)
        block_zero = run.block_cycles[0]
        assert block_zero != run.cycles_per_block
        assert chain["e2"].rows[0]["cycles/block"] == round(
            run.cycles_per_block)
        assert chain["e3"].rows[0]["implementation"] == f"C: {SWEEP[0][0]}"
        assert chain["e3"].rows[0]["cycles/block"] == block_zero


class TestPrefix:
    RUN = AesMeasurement(name="run", key_cycles=(100, 101),
                         block_cycles=(10, 11, 20, 21), blocks_per_key=2,
                         code_size=5)

    @pytest.mark.parametrize("keys,blocks_per_key,block_cycles", [
        (2, 2, (10, 11, 20, 21)),
        (1, 2, (10, 11)),
        (1, 1, (10,)),
    ])
    def test_prefixes(self, keys, blocks_per_key, block_cycles):
        cut = self.RUN.prefix(keys, blocks_per_key)
        assert cut.block_cycles == block_cycles
        assert cut.key_cycles == self.RUN.key_cycles[:keys]
        assert (cut.keys, cut.blocks_per_key) == (keys, blocks_per_key)

    @pytest.mark.parametrize("keys,blocks_per_key", [
        (2, 1), (1, 3), (3, 2),
    ])
    def test_non_prefixes(self, keys, blocks_per_key):
        assert self.RUN.prefix(keys, blocks_per_key) is None

    def test_table_answers_only_for_kept_variants(self):
        table = AesBuilds()
        table.keep(ASSEMBLY, self.RUN)
        assert table.measured(ASSEMBLY, 1, 1).block_cycles == (10,)
        assert table.measured(BASELINE, 1, 1) is None
        assert table.measured(ASSEMBLY, 2, 1) is None
