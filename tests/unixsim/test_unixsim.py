"""Unix host simulation: filesystem, processes, fork, signals."""

import pytest

from repro.net.addresses import Ipv4Address
from repro.net.sim import Simulator
from repro.unixsim import (
    exit_process,
    FileSystem,
    FsError,
    ProcessState,
    Signal,
    UnixHost,
    UnixKernel,
)


class TestFileSystem:
    def test_write_read_roundtrip(self):
        fs = FileSystem()
        fs.write_file("/etc/keys", b"secret material")
        assert fs.read_file("/etc/keys") == b"secret material"

    def test_open_missing_for_read(self):
        fs = FileSystem()
        with pytest.raises(FsError):
            fs.open("/missing", "r")

    def test_append_mode(self):
        fs = FileSystem()
        fs.write_file("/log", b"line1\n")
        with fs.open("/log", "a") as fh:
            fh.write(b"line2\n")
        assert fs.read_file("/log") == b"line1\nline2\n"

    def test_w_truncates(self):
        fs = FileSystem()
        fs.write_file("/f", b"long content here")
        fs.write_file("/f", b"short")
        assert fs.read_file("/f") == b"short"

    def test_partial_reads(self):
        fs = FileSystem()
        fs.write_file("/f", b"abcdef")
        fh = fs.open("/f")
        assert fh.read(2) == b"ab"
        assert fh.read(2) == b"cd"
        assert fh.read() == b"ef"
        assert fh.read() == b""

    def test_mode_enforcement(self):
        fs = FileSystem()
        fs.write_file("/f", b"x")
        with pytest.raises(FsError):
            fs.open("/f", "r").write(b"nope")
        with pytest.raises(FsError):
            fs.open("/f", "a").read()
        with pytest.raises(FsError):
            fs.open("/f", "q")

    def test_closed_file_rejects_io(self):
        fs = FileSystem()
        fh = fs.open("/f", "w")
        fh.close()
        with pytest.raises(FsError):
            fh.write(b"late")

    def test_capacity_enforced(self):
        # The embedded world's counterexample: a tiny disk fills up.
        fs = FileSystem(capacity=100)
        fs.write_file("/log", b"x" * 90)
        with pytest.raises(FsError, match="disk full"):
            with fs.open("/log", "a") as fh:
                fh.write(b"y" * 20)

    def test_rplus_updates_in_place(self):
        fs = FileSystem()
        fs.write_file("/f", b"aaaa")
        with fs.open("/f", "r+") as fh:
            fh.write(b"bb")
        assert fs.read_file("/f") == b"bbaa"


class TestProcesses:
    def test_spawn_and_exit_status(self):
        sim = Simulator()
        kernel = UnixKernel(sim)

        def main():
            yield 0.1
            return 7

        proc = kernel.spawn(main(), name="main")
        sim.run()
        assert proc.state == ProcessState.ZOMBIE
        assert proc.exit_status == 7

    def test_exit_process_helper(self):
        sim = Simulator()
        kernel = UnixKernel(sim)

        def main():
            yield 0.1
            exit_process(3)

        proc = kernel.spawn(main())
        sim.run()
        assert proc.exit_status == 3

    def test_fork_parent_continues(self):
        sim = Simulator()
        kernel = UnixKernel(sim)
        order = []

        def child(tag):
            yield 0.5
            order.append(("child", tag, sim.now))

        def parent():
            for tag in range(2):
                kernel.fork(child(tag))
                order.append(("forked", tag, sim.now))
                yield 0.1
            yield 1.0

        kernel.spawn(parent(), name="parent")
        sim.run()
        assert order[0][0] == "forked"
        assert kernel.forks == 2
        assert [o for o in order if o[0] == "child"]

    def test_signal_handler_called(self):
        sim = Simulator()
        kernel = UnixKernel(sim)
        caught = []

        def main():
            me = kernel.process(1)
            me.signal(Signal.SIGINT, lambda s: caught.append(s))
            yield 10.0

        proc = kernel.spawn(main())
        sim.call_after(1.0, kernel.kill, proc.pid, Signal.SIGINT)
        sim.run()
        assert caught == [Signal.SIGINT]
        assert proc.state == ProcessState.ZOMBIE  # ran to completion

    def test_unhandled_sigterm_kills(self):
        sim = Simulator()
        kernel = UnixKernel(sim)
        progressed = []

        def main():
            while True:
                progressed.append(sim.now)
                yield 1.0

        proc = kernel.spawn(main())
        sim.call_after(2.5, kernel.kill, proc.pid, Signal.SIGTERM)
        sim.run()
        assert proc.state == ProcessState.ZOMBIE
        assert proc.exit_status == 128 + int(Signal.SIGTERM)
        assert len(progressed) == 3

    def test_kill_unknown_pid(self):
        sim = Simulator()
        kernel = UnixKernel(sim)
        assert kernel.kill(42, Signal.SIGKILL) is False

    def test_sigchld_delivered_to_parent(self):
        sim = Simulator()
        kernel = UnixKernel(sim)
        reaped = []

        def child():
            yield 0.5

        def parent():
            me = kernel.process(1)
            me.signal(Signal.SIGCHLD, lambda s: reaped.append(sim.now))
            kernel.fork(child(), parent=me)
            yield 2.0

        kernel.spawn(parent())
        sim.run()
        assert reaped == [0.5]

    def test_running_list(self):
        sim = Simulator()
        kernel = UnixKernel(sim)

        def quick():
            yield 0.1

        def slow():
            yield 5.0

        kernel.spawn(quick())
        kernel.spawn(slow())
        sim.run(until=1.0)
        assert len(kernel.running) == 1


class TestUnixHost:
    def test_host_has_kernel_and_fs(self):
        sim = Simulator()
        host = UnixHost(sim, "ws", Ipv4Address.parse("10.0.0.1"))
        assert host.kernel is not None
        host.fs.write_file("/tmp/x", b"1")
        assert host.fs.read_file("/tmp/x") == b"1"

    def test_spawn_process(self):
        sim = Simulator()
        host = UnixHost(sim, "ws", Ipv4Address.parse("10.0.0.1"))

        def main():
            yield 0.1
            return 0

        proc = host.spawn_process(main(), name="svc")
        sim.run()
        assert proc.exit_status == 0
