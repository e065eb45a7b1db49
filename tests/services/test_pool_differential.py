"""Exactly-once buffer release across every handler exit path of both
wirings -- the static Figure 3 redirector and the dynamic pool at
``slots=3`` -- and the single teardown that makes it hold.

Both wirings serve each connection with the one
``redirector._serve_connection`` path."""

import ast
import functools
import inspect

import pytest

from repro.dync.runtime.xalloc import XmemBufferPool
from repro.faults import scenarios as fscen
from repro.services import redirector
from repro.services import world as world_mod


class StrictBufferPool(XmemBufferPool):
    """A buffer pool that refuses a double release -- the detector the
    exactly-once tests wire through ``build_world``."""

    instances: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.releases = 0
        StrictBufferPool.instances.append(self)

    def release(self, pointer):
        for idle in self._idle:
            assert idle is not pointer, (
                "buffer released twice without an acquire in between"
            )
        self.releases += 1
        super().release(pointer)


#: Exit path -> the verdict counter proving the path ran.  Every
#: scenario must end with each acquired buffer released exactly once.
_RELEASE_SCENARIOS = {
    "baseline": "redirector.redirected",               # clean close
    "stalled-peer": "redirector.deadline.expired",     # deadline abort
    "corrupt-app-record": "issl.records.mac_failures",  # MAC teardown
    "silent-peer": "redirector.errors.handshake",      # handshake failure
    "backend-outage": "redirector.errors.backend",     # backend unreachable
    "slot-exhaustion": "redirector.refused.sessions",  # session refusal
    "xalloc-exhaustion": "redirector.refused.memory",  # memory refusal
    # Slot refusal, before any acquire.  The scenario builds its own
    # admission-mode pool, so it runs that wiring under every id.
    "pool-burst-3": "redirector.refused.slots",
}

#: The two wirings that serve connections: Figure 3's static handlers
#: and the admission-mode pool.
_WIRINGS = {
    "static": dict(pooled=False),
    "admission": dict(pooled=True),
}


class TestExactlyOnceRelease:
    @pytest.mark.parametrize("name", list(_RELEASE_SCENARIOS))
    @pytest.mark.parametrize("wiring", list(_WIRINGS))
    def test_every_exit_path_releases_exactly_once(self, wiring, name,
                                                   monkeypatch):
        StrictBufferPool.instances = []
        monkeypatch.setattr(world_mod, "XmemBufferPool", StrictBufferPool)
        monkeypatch.setattr(
            fscen, "build_world",
            functools.partial(fscen.build_world, buffer_pool=True,
                              **_WIRINGS[wiring]),
        )
        runner = fscen.SCENARIOS[name][0]
        verdict = runner(9911)
        assert StrictBufferPool.instances, "strict pool was not wired in"
        for pool in StrictBufferPool.instances:
            # Exactly once: all acquired buffers came back, none twice
            # (a double release raises inside StrictBufferPool.release).
            assert pool.in_use == 0
            assert pool.releases == pool.acquired_total
        # The scenario itself must still hold under the strict pool, and
        # its exit path must actually have run.
        assert verdict["ok"], [
            check for check in verdict["checks"] if not check["ok"]
        ]
        assert verdict["counters"].get(_RELEASE_SCENARIOS[name], 0) > 0

    def test_strict_pool_detects_double_release(self):
        from repro.dync.runtime.xalloc import XmemAllocator

        StrictBufferPool.instances = []
        pool = StrictBufferPool(XmemAllocator(capacity=8192), 1, 1024)
        pointer = pool.acquire()
        pool.release(pointer)
        with pytest.raises(AssertionError):
            pool.release(pointer)


class TestSingleTeardown:
    """The redirector has one connection teardown, so "released exactly
    once" holds by construction rather than by five hand-kept copies."""

    @staticmethod
    def _tree():
        return ast.parse(inspect.getsource(redirector))

    def test_one_buffer_release_call_site(self):
        sites = [
            node for node in ast.walk(self._tree())
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "release"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "buffer_pool"
        ]
        assert len(sites) == 1, [node.lineno for node in sites]

    def test_no_finally_block_yields(self):
        # Closing a suspended generator runs its finally blocks; a yield
        # there raises "generator ignored GeneratorExit".
        for node in ast.walk(self._tree()):
            for stmt in getattr(node, "finalbody", []):
                assert not any(
                    isinstance(inner, (ast.Yield, ast.YieldFrom))
                    for inner in ast.walk(stmt)
                ), stmt.lineno
