"""Figure 3, executable: the ported TLS server's main loop.

    python examples/secure_redirector_rmc2000.py

Builds the RMC2000 secure redirector exactly as the paper structures it
-- three handler costatements plus one tcp_tick driver -- and throws
four simultaneous clients at it.  The fourth client queues: the
costatement count *is* the concurrency ceiling, and raising it means
recompiling (here: rebuilding the scheduler with more costatements).
"""

from repro.crypto.demokeys import DEMO_PSK
from repro.crypto.prng import CipherRng
from repro.experiments.harness import format_table
from repro.issl import FREE, IsslContext, UNIX_FULL
from repro.services import (
    build_redirector_world,
    ClientReport,
    secure_request_client,
    TLS_PORT,
)


def run_with_handlers(handlers: int, clients: int) -> list[ClientReport]:
    world = build_redirector_world(
        b"fig3", clients=clients, bandwidth_bps=100_000_000,
        cost_model=FREE, max_sessions=handlers, handlers=handlers,
    )
    print(f"  main loop: {world.scheduler.costate_names}")
    hosts = world.hosts
    reports = []
    processes = []
    for index in range(clients):
        host = hosts[f"c{index}"]
        report = ClientReport(f"client{index}")
        reports.append(report)
        ctx = IsslContext(UNIX_FULL, CipherRng(b"c%d" % index), psk=DEMO_PSK)
        processes.append(host.spawn(secure_request_client(
            host, ctx, str(hosts["rmc"].ip_address), TLS_PORT, 10, 64, report
        )))
    for process in processes:
        world.sim.run_until_complete(process, timeout=600)
    return reports


def main() -> None:
    print("RMC2000 port, as in the paper (3 handlers + tick driver):")
    narrow = run_with_handlers(handlers=3, clients=4)
    print("\n'Recompiled' with one more costatement:")
    wide = run_with_handlers(handlers=4, clients=4)
    rows = []
    for label, reports in (("3 handlers", narrow), ("4 handlers", wide)):
        for report in reports:
            rows.append({
                "build": label,
                "client": report.name,
                "handshake wait ms": round(report.handshake_time * 1000, 2),
                "done at s": round(report.end, 4),
                "ok": report.error is None,
            })
    print()
    print(format_table(rows))
    worst_narrow = max(r.handshake_time for r in narrow)
    worst_wide = max(r.handshake_time for r in wide)
    print(f"\nWorst handshake wait: {worst_narrow * 1000:.2f} ms with 3 "
          f"handlers vs {worst_wide * 1000:.2f} ms after the recompile --")
    print("the 4th client was queueing on a costatement slot, exactly the")
    print("\"maximum of three connections\" the paper describes.")


if __name__ == "__main__":
    main()
