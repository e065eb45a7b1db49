"""Canned, fully-instrumented runs for ``python -m repro.obs``.

Two scenarios:

* ``redirector`` -- the ported secure redirector under client load, with
  every layer traced: issl handshakes/records, TCP state machines,
  costatement slices, the service's request relays, and the port's
  static xalloc allocations.
* ``aes`` -- one AES implementation on the cycle-counting Rabbit core
  under :class:`repro.obs.profile.CycleProfiler`, producing per-routine
  cycle attribution and collapsed flame stacks.

Each returns a plain dict so the CLI (and tests) can pick out the
:class:`repro.obs.Obs` handle, reports, and profiler.
"""

from __future__ import annotations

from repro.crypto.demokeys import DEMO_PSK
from repro.crypto.prng import CipherRng
from repro.crypto.rijndael import Rijndael
from repro.issl import IsslContext, RMC2000_ASM, UNIX_FULL
from repro.obs import Obs
from repro.obs.profile import (
    CycleProfiler,
    assembly_function_symbols,
    compiled_function_symbols,
)
from repro.rabbit.board import Board, CLOCK_HZ
from repro.services import (
    ClientReport,
    SLOT_BUFFER_BYTES,
    TLS_PORT,
    build_redirector_world,
    secure_request_client,
)


def run_redirector_scenario(obs: Obs | None = None, *, clients: int = 3,
                            requests: int = 4, request_size: int = 64,
                            handlers: int = 3, lan_hook=None) -> dict:
    """The ported redirector under load, instrumented end to end.

    ``lan_hook`` (optional) receives the :class:`EthernetSegment` before
    any traffic flows -- fault tests use it to install drop filters or
    frame hooks without rebuilding the topology by hand.
    """
    # The asm cost model: crypto costs real simulated milliseconds, so
    # costatement slices have visible width on the trace.
    world = build_redirector_world(
        b"obs-redirector", clients=clients,
        obs=obs if obs is not None else Obs(), bandwidth_bps=100_000_000,
        cost_model=RMC2000_ASM, logger_capacity=16, xmem_capacity=64 * 1024,
        handlers=handlers,
    )
    if lan_hook is not None:
        lan_hook(world.lan)
    # Boot-time static allocation, as on the port: one record buffer per
    # handler costatement out of the no-free xmem pool.
    buffers = [world.xmem.xalloc(SLOT_BUFFER_BYTES) for _ in range(handlers)]
    hosts = world.hosts
    reports: list[ClientReport] = []
    processes = []
    for index in range(clients):
        host = hosts[f"c{index}"]
        report = ClientReport(f"client{index}")
        reports.append(report)
        client_context = IsslContext(
            UNIX_FULL, CipherRng(b"obs-c%d" % index), psk=DEMO_PSK
        )
        processes.append(host.spawn(secure_request_client(
            host, client_context, str(hosts["rmc"].ip_address), TLS_PORT,
            requests, request_size, report,
        )))
    for process in processes:
        world.sim.run_until_complete(process, timeout=600)
    world.scheduler.stop()
    world.obs.tracer.finish_open()
    return {
        "obs": world.obs,
        "sim": world.sim,
        "lan": world.lan,
        "reports": reports,
        "stats": world.stats,
        "scheduler": world.scheduler,
        "xalloc": world.xmem,
        "buffers": buffers,
        "logger": world.logger,
    }


def run_aes_scenario(obs: Obs | None = None, *, implementation: str = "asm",
                     keys: int = 1, blocks_per_key: int = 2) -> dict:
    """Profile one AES implementation per routine on the Rabbit core."""
    if obs is None:
        obs = Obs()
    board = Board()
    if implementation == "asm":
        from repro.rabbit.programs.aes_asm import AesAsm, build_aes_asm
        impl = AesAsm(board, build_aes_asm(include_decrypt=False))
        symbols = assembly_function_symbols(impl.assembly, prefix="aes_")
    elif implementation == "c":
        from repro.rabbit.programs.aes_c import AesC, build_aes_c
        impl = AesC(board, build_aes_c(include_decrypt=False))
        symbols = compiled_function_symbols(impl.program.compilation)
    else:
        raise ValueError(f"implementation must be asm/c, got {implementation!r}")
    profiler = CycleProfiler(board.cpu, symbols, tracer=obs.tracer)
    # Cumulative-cycle telemetry in CPU time, sampled once per AES
    # block.
    ts_cycles = obs.telemetry.series("cpu.cycles")
    board.cpu.sample_telemetry(ts_cycles, CLOCK_HZ)
    blocks = 0
    with profiler:
        for key_index in range(keys):
            key = bytes((key_index * 29 + j * 13 + 5) & 0xFF
                        for j in range(16))
            reference = Rijndael(key)
            impl.set_key(key)
            for block_index in range(blocks_per_key):
                block = bytes((key_index + block_index * 11 + j * 7) & 0xFF
                              for j in range(16))
                ciphertext, _cycles = impl.encrypt_block(block)
                if ciphertext != reference.encrypt_block(block):
                    raise AssertionError("AES scenario: wrong ciphertext")
                blocks += 1
                board.cpu.sample_telemetry(ts_cycles, CLOCK_HZ)
        metrics = obs.metrics
        metrics.counter("aes.blocks.encrypted").inc(blocks)
        metrics.gauge("aes.total_cycles").set(profiler.total_cycles)
        # Read the block cache before uninstalling drops its blocks.
        cache = board.cpu._cache
        if cache is not None:
            metrics.counter("emulator.blocks.decoded").inc(
                cache.decoded_blocks)
            metrics.counter("emulator.blocks.executed").inc(
                cache.executed_blocks)
            metrics.counter("emulator.blocks.translated").inc(
                cache.translated_blocks)
            metrics.counter("emulator.blocks.translated_execs").inc(
                cache.translated_execs)
            metrics.gauge("emulator.cache.blocks").set(len(cache.blocks))
            metrics.counter("emulator.invalidations.smc").inc(
                cache.invalidated_smc)
            metrics.counter("emulator.invalidations.flush").inc(
                cache.invalidated_flush)
    return {
        "obs": obs,
        "profiler": profiler,
        "implementation": implementation,
        "blocks": blocks,
    }


SCENARIOS = {
    "redirector": run_redirector_scenario,
    "aes": run_aes_scenario,
}
