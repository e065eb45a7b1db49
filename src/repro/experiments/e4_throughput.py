"""E4: what security costs in throughput (paper, Section 2).

"Security, sadly, is not cheap. ... Goldberg et al. observed SSL
reducing throughput by an order of magnitude."  That observation is the
paper's motivation for offloading TLS to a device like the RMC2000 in
the first place, so the reproduction runs the redirector service both
ways on the simulated network:

* plaintext redirector on the RMC2000 (Figure 3 structure, no issl),
* issl-secured redirector on the RMC2000, crypto charged at the
  E1-calibrated cycle costs (hand-assembly AES, the shipped config),
* optionally the same pair on the simulated Unix host.

The embedded CPU burns milliseconds per record on AES+HMAC, and the
measured secure/plain throughput gap lands around an order of
magnitude.
"""

from __future__ import annotations

from repro.crypto.demokeys import DEMO_PSK
from repro.crypto.prng import CipherRng
from repro.experiments.harness import ExperimentResult
from repro.issl import IsslContext, RMC2000_ASM, RMC2000_C_PORT, UNIX_FULL
from repro.services import (
    ClientReport,
    PLAIN_PORT,
    TLS_PORT,
    build_redirector_world,
    plain_request_client,
    secure_request_client,
)


def _run_rmc_service(secure: bool, requests: int, request_size: int,
                     cost_model, obs=None) -> tuple[ClientReport, object]:
    """One simulation: client -> RMC redirector -> backend.

    Returns ``(report, obs)``; pass ``obs=None`` for an uninstrumented
    run (the null handle costs one attribute lookup per site).
    """
    world = build_redirector_world(b"rmc-e4", clients=1, obs=obs,
                                   cost_model=cost_model, secure=secure)
    client = world.hosts["c0"]
    server_ip = str(world.hosts["rmc"].ip_address)
    report = ClientReport("client")
    client_context = IsslContext(UNIX_FULL, CipherRng(b"cli-e4"), psk=DEMO_PSK)
    if secure:
        process = client.spawn(secure_request_client(
            client, client_context, server_ip, TLS_PORT, requests,
            request_size, report,
        ))
    else:
        process = client.spawn(plain_request_client(
            client, server_ip, PLAIN_PORT, requests, request_size, report,
        ))
    world.sim.run_until_complete(process, timeout=3600)
    if report.error:
        raise AssertionError(f"E4 client failed: {report.error}")
    return report, world.obs


def run_e4(requests: int = 8, request_size: int = 256,
           instrument: bool = True) -> ExperimentResult:
    """Run E4; ``instrument`` (default on) gives each simulation its own
    :class:`repro.obs.Obs` handle and reports the secure runs' issl
    counters alongside the throughput table.  ``instrument=False`` is
    the overhead-check configuration: every site sees the null handle.
    """
    from repro.obs import Obs

    def fresh_obs():
        return Obs() if instrument else None

    plain, _ = _run_rmc_service(
        False, requests, request_size, RMC2000_ASM, obs=fresh_obs()
    )
    secure_asm, obs_asm = _run_rmc_service(
        True, requests, request_size, RMC2000_ASM, obs=fresh_obs()
    )
    secure_c, obs_c = _run_rmc_service(
        True, requests, request_size, RMC2000_C_PORT, obs=fresh_obs()
    )
    extra_tables: dict = {}
    if instrument:
        counter_rows = []
        for label, obs in (("asm AES", obs_asm), ("C-port AES", obs_c)):
            counters = obs.metrics.snapshot()["counters"]
            counter_rows.append({
                "run": label,
                "records sent": counters.get("issl.records.sent", 0),
                "bytes encrypted": counters.get("issl.bytes.encrypted", 0),
                "handshakes": counters.get("issl.handshakes.completed", 0),
                "retransmits": counters.get("tcp.segments.retransmitted", 0),
            })
        extra_tables["issl counters (server side)"] = counter_rows
    rows = []
    for label, report in (
        ("plaintext redirector", plain),
        ("issl redirector (asm AES)", secure_asm),
        ("issl redirector (C-port AES)", secure_c),
    ):
        rows.append({
            "service": label,
            "throughput kb/s": round(report.throughput_bps / 1000, 2),
            "mean request ms": round(
                1000 * sum(report.request_times) / len(report.request_times), 2
            ),
            "handshake ms": round(report.handshake_time * 1000, 2),
        })
    ratio_asm = plain.throughput_bps / secure_asm.throughput_bps
    ratio_c = plain.throughput_bps / secure_c.throughput_bps
    reproduced = ratio_asm >= 5.0
    metrics = {
        "plain_kb_per_s": plain.throughput_bps / 1000,
        "secure_asm_kb_per_s": secure_asm.throughput_bps / 1000,
        "secure_c_kb_per_s": secure_c.throughput_bps / 1000,
        "plain_over_secure_asm_ratio": ratio_asm,
        "plain_over_secure_c_ratio": ratio_c,
        "secure_asm_handshake_ms": secure_asm.handshake_time * 1000,
        "secure_c_handshake_ms": secure_c.handshake_time * 1000,
        "secure_asm_mean_request_ms": 1000 * sum(secure_asm.request_times)
        / len(secure_asm.request_times),
    }
    if instrument:
        counters = obs_asm.metrics.snapshot()["counters"]
        metrics["asm_records_sent"] = counters.get("issl.records.sent", 0)
        metrics["asm_bytes_encrypted"] = counters.get(
            "issl.bytes.encrypted", 0
        )
        metrics["asm_handshakes_completed"] = counters.get(
            "issl.handshakes.completed", 0
        )
    return ExperimentResult(
        experiment_id="E4",
        title="Throughput cost of TLS on the embedded redirector",
        paper_claim=(
            "SSL reduces throughput by an order of magnitude "
            "(Goldberg et al., cited as motivation)"
        ),
        rows=rows,
        summary=(
            f"plain/secure throughput ratio: {ratio_asm:.1f}x with assembly "
            f"AES, {ratio_c:.1f}x with the C-port AES"
        ),
        reproduced=reproduced,
        notes=(
            "crypto CPU time charged at E1-calibrated cycles/block on the "
            "30 MHz Rabbit; the C-port row shows why the assembly cipher "
            "mattered for the product, not just the benchmark"
        ),
        extra_tables=extra_tables,
        metrics=metrics,
    )
