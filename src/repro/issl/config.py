"""issl build profiles and cipher suites.

issl "supports key lengths of 128, 192, or 256 bits and block lengths of
128, 192, and 256 bits" and RSA key exchange.  The RMC2000 port kept
only 128-bit AES and dropped RSA (bignum too complex to rework) and all
dynamic allocation.  The two build profiles encode exactly that split,
and everything downstream (handshake, services, benchmarks E4/E7)
selects behaviour through them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.issl.costmodel import CryptoCostModel, FREE


class CipherSuite(enum.IntEnum):
    """Key-exchange + bulk-cipher combinations issl knows."""

    RSA_AES128 = 0x01
    RSA_AES192 = 0x02
    RSA_AES256 = 0x03
    PSK_AES128 = 0x11  # the port's RSA-less mode (static pre-shared key)

    @property
    def key_bytes(self) -> int:
        return {
            CipherSuite.RSA_AES128: 16,
            CipherSuite.RSA_AES192: 24,
            CipherSuite.RSA_AES256: 32,
            CipherSuite.PSK_AES128: 16,
        }[self]

    @property
    def uses_rsa(self) -> bool:
        return self in (
            CipherSuite.RSA_AES128,
            CipherSuite.RSA_AES192,
            CipherSuite.RSA_AES256,
        )


class IsslConfigError(ValueError):
    """Raised when a profile forbids the requested configuration."""


@dataclass(frozen=True)
class BuildProfile:
    """What one build of issl can do."""

    name: str
    suites: tuple[CipherSuite, ...]
    max_record: int
    max_sessions: int
    has_filesystem: bool
    dynamic_allocation: bool
    cost_model: CryptoCostModel = FREE

    def check_suite(self, suite: CipherSuite) -> CipherSuite:
        if suite not in self.suites:
            raise IsslConfigError(
                f"profile {self.name!r} does not support {suite.name} "
                f"(supported: {[s.name for s in self.suites]})"
            )
        return suite

    def with_cost_model(self, model: CryptoCostModel) -> "BuildProfile":
        from dataclasses import replace

        return replace(self, cost_model=model)


#: The original Unix build: every suite, big records, fork-per-connection
#: (no session cap beyond memory), filesystem logging.
UNIX_FULL = BuildProfile(
    name="UNIX_FULL",
    suites=(
        CipherSuite.RSA_AES128,
        CipherSuite.RSA_AES192,
        CipherSuite.RSA_AES256,
        CipherSuite.PSK_AES128,
    ),
    max_record=16384,
    max_sessions=64,
    has_filesystem=True,
    dynamic_allocation=True,
)

#: The port: PSK + AES-128 only, small static buffers, three sessions
#: (Figure 3's three costatements), no filesystem, no malloc.
RMC2000_PORT = BuildProfile(
    name="RMC2000_PORT",
    suites=(CipherSuite.PSK_AES128,),
    max_record=1024,
    max_sessions=3,
    has_filesystem=False,
    dynamic_allocation=False,
)
