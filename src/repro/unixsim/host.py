"""A Unix workstation: network host + kernel + filesystem."""

from __future__ import annotations

from repro.net.addresses import Ipv4Address, MacAddress
from repro.net.host import Host
from repro.net.sim import Simulator
from repro.unixsim.fs import FileSystem
from repro.unixsim.process import UnixKernel


class UnixHost(Host):
    """The machine the original issl service ran on."""

    def __init__(self, sim: Simulator, name: str, ip_address: Ipv4Address,
                 mac: MacAddress | None = None):
        super().__init__(sim, name, ip_address, mac)
        self.kernel = UnixKernel(sim)
        self.fs = FileSystem()

    def spawn_process(self, gen, name: str = "proc"):
        """Start a Unix process (with a pid, signals, wait...)."""
        return self.kernel.spawn(gen, name=name)

    def __repr__(self) -> str:
        return f"UnixHost({self.name!r}, {self.ip_address})"
