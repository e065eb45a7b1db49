"""The paper's applications (DESIGN.md S8): echo servers, the secure
redirector (Unix original and RMC2000 port), and load clients."""

from repro.services.client import (
    ClientReport,
    delayed,
    plain_request_client,
    secure_request_client,
)
from repro.services.echo import bsd_echo_server, dync_echo_costate, echo_client
from repro.services.redirector import (
    BACKEND_PORT,
    PLAIN_PORT,
    SLOT_BUFFER_BYTES,
    TLS_PORT,
    backend_line_server,
    build_pooled_redirector,
    build_rmc_redirector,
    unix_secure_redirector,
)
from repro.services.scaling import SCALING_POOL_SIZES, run_scaling_curve
from repro.services.world import RedirectorWorld, build_redirector_world

__all__ = [
    "BACKEND_PORT",
    "ClientReport",
    "PLAIN_PORT",
    "RedirectorWorld",
    "SCALING_POOL_SIZES",
    "SLOT_BUFFER_BYTES",
    "TLS_PORT",
    "backend_line_server",
    "bsd_echo_server",
    "delayed",
    "build_pooled_redirector",
    "build_redirector_world",
    "build_rmc_redirector",
    "dync_echo_costate",
    "echo_client",
    "plain_request_client",
    "run_scaling_curve",
    "secure_request_client",
    "unix_secure_redirector",
]
