"""The core library: both deployments of the secure redirector."""

import pytest

from repro.core import build_rmc2000_deployment, build_unix_deployment
from repro.issl import CipherSuite, FREE


@pytest.fixture(scope="module")
def rmc():
    return build_rmc2000_deployment(clients=4,
                                    cost_model=FREE)


class TestRmcDeployment:
    def test_basic_client(self, rmc):
        report = rmc.run_client(requests=3, request_size=32)
        assert report.error is None
        assert len(report.request_times) == 3
        assert rmc.stats["redirected"] >= 3

    def test_sequential_clients_share_world(self, rmc):
        first = rmc.run_client(requests=1)
        second = rmc.run_client(requests=1)
        assert first.error is None and second.error is None
        assert rmc.server_context.sessions_total >= 2

    def test_negotiates_psk_only(self, rmc):
        assert rmc.suites == (CipherSuite.PSK_AES128,)

    def test_circular_log_in_use(self, rmc):
        from repro.issl import CircularLogger

        assert isinstance(rmc.server_context.logger, CircularLogger)

    def test_runs_out_of_client_hosts(self, rmc):
        with pytest.raises(RuntimeError):
            for _ in range(10):
                rmc.run_client(requests=1)

    def test_refused_batch_uses_up_no_client_hosts(self):
        deployment = build_rmc2000_deployment(clients=3, cost_model=FREE)
        deployment.run_client(requests=1)
        with pytest.raises(RuntimeError):
            deployment.run_clients(3, requests=1)
        reports = deployment.run_clients(2, requests=1)
        assert [r.error for r in reports] == [None, None]


class TestUnixDeployment:
    def test_basic_client_rsa(self):
        deployment = build_unix_deployment(clients=2)
        report = deployment.run_client(requests=2, request_size=16)
        assert report.error is None
        assert deployment.server_host.kernel.forks == 1

    def test_concurrent_clients_fork(self):
        deployment = build_unix_deployment(clients=3)
        reports = deployment.run_clients(2, requests=1, request_size=8)
        assert all(r.error is None for r in reports)
        assert deployment.server_host.kernel.forks == 2

    def test_file_log_grows(self):
        from repro.issl import FileLogger

        deployment = build_unix_deployment(clients=1)
        deployment.run_client(requests=1)
        logger = deployment.server_context.logger
        assert isinstance(logger, FileLogger)
        log = deployment.server_host.fs.read_file(logger.path)
        assert len(log.splitlines()) >= 1


class TestCrossDeploymentComparison:
    def test_port_is_slower_than_original(self):
        # The whole point of the paper's Table-of-woes: same service,
        # embedded deployment pays for its CPU.
        from repro.issl import RMC2000_ASM

        unix = build_unix_deployment(clients=1)
        unix_report = unix.run_client(requests=3, request_size=128)
        rmc = build_rmc2000_deployment(clients=1, cost_model=RMC2000_ASM)
        rmc_report = rmc.run_client(requests=3, request_size=128)
        assert unix_report.error is None and rmc_report.error is None
        assert rmc_report.throughput_bps < unix_report.throughput_bps
