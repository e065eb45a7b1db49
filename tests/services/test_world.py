"""The one RMC2000 deployment builder: what it stands up, and a pin
that keeps it the only place the redirector world is wired."""

import ast
from pathlib import Path

import repro
from repro.issl import CircularLogger, FREE, NullLogger, RMC2000_PORT
from repro.net.bsd import LISTENQ
from repro.obs import Obs
from repro.services import SLOT_BUFFER_BYTES, build_redirector_world
from repro.services import redirector

_SRC = Path(repro.__file__).parent


class TestBuilder:
    def test_hosts_in_creation_order(self):
        world = build_redirector_world(b"w", clients=2, cost_model=FREE)
        assert list(world.hosts) == ["rmc", "backend", "c0", "c1"]
        assert [str(h.ip_address) for h in world.hosts.values()] == [
            "10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4",
        ]
        assert world.lan.bandwidth_bps == 10_000_000

    def test_minimal_world_has_no_logger_xmem_or_pool(self):
        world = build_redirector_world(b"w", clients=1)
        assert world.context.profile == RMC2000_PORT
        assert isinstance(world.context.logger, NullLogger)
        assert world.logger is None
        assert world.xmem is None and world.buffer_pool is None
        assert world.scheduler.costate_names == [
            "handler1", "handler2", "handler3", "tick-driver",
        ]

    def test_profile_logger_xmem_and_pool_follow_the_data(self):
        world = build_redirector_world(
            b"w", clients=1, obs=Obs(), cost_model=FREE, max_sessions=5,
            logger_capacity=16, xmem_capacity=64 * 1024, buffer_pool=True,
            handlers=5,
        )
        assert world.context.profile.cost_model is FREE
        assert world.context.profile.max_sessions == 5
        assert isinstance(world.logger, CircularLogger)
        assert world.context.logger is world.logger
        assert world.xmem.capacity == 64 * 1024
        assert world.buffer_pool.max_slots == 5
        assert world.buffer_pool.slot_bytes == SLOT_BUFFER_BYTES

    def test_backend_backlog_covers_the_pool(self):
        for handlers, backlog in ((3, LISTENQ), (8, 8)):
            world = build_redirector_world(
                b"w", clients=0, handlers=handlers, pooled=True)
            world.sim.run(until=0.001)
            listeners = world.hosts["backend"].tcp._listeners.values()
            assert [listener.backlog for listener in listeners] == [backlog]


def _calls(names):
    """``(module, enclosing function)`` for every call to one of
    ``names`` under ``src/repro``."""
    sites = []
    for path in sorted(_SRC.rglob("*.py")):
        module = path.relative_to(_SRC).as_posix()
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                name = getattr(callee, "id", getattr(callee, "attr", None))
                if name in names:
                    sites.append((module, func.name))
    return sorted(set(sites))


class TestOneDeploymentBuilder:
    """Every redirector world comes from ``build_redirector_world``, so
    the deployments cannot drift apart again."""

    def test_redirector_builders_called_only_by_the_world_builder(self):
        sites = _calls({"build_rmc_redirector"})
        assert sites == [("services/world.py", "build_redirector_world")]

    def test_one_redirector_builder(self):
        # The slot pool is build_rmc_redirector(pooled=True), not a
        # second builder with its own copy of the prologue.
        assert not hasattr(redirector, "build_pooled_redirector")

    def test_dync_stack_built_only_there_and_in_the_echo_worlds(self):
        assert _calls({"DyncTcpStack"}) == [
            ("experiments/e6_api_gap.py", "run_echo_pair"),
            ("faults/scenarios.py", "scenario_echo_loss"),
            ("services/world.py", "build_redirector_world"),
        ]
