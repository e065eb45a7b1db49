"""Self-lint: dclint over the repository's own sources, as a CI gate.

Every embedded-DSL source and every runtime call site in the repo must
satisfy the platform contract the paper's authors discovered by hand
(Sections 4-5).  A new error-severity finding here means a change
reintroduced one of the porting bugs; fix it or annotate the deliberate
demonstration with ``dclint: allow(RULE)`` -- do not relax this test.
"""

import ast
import importlib
import pathlib
import re

import pytest

from repro.analysis import Severity, analyze_dync_source, analyze_paths
from repro.crypto import modes
from repro.rabbit.programs.aes_c import AES_C_SOURCE
from repro.rabbit.programs.redirector_dc import FIGURE3_MAIN_SOURCE, main_source
from repro.rabbit.programs.rsa_c import generate_source

REPO = pathlib.Path(__file__).resolve().parent.parent.parent

#: The trees the acceptance gate lints (examples + services), plus the
#: subsystems that carry embedded firmware or runtime call sites.
LINTED_TREES = [
    REPO / "examples",
    REPO / "src" / "repro" / "services",
    REPO / "src" / "repro" / "rabbit",
    REPO / "src" / "repro" / "crypto",
    REPO / "src" / "repro" / "experiments",
    REPO / "src" / "repro" / "dync",
    REPO / "src" / "repro" / "obs",
    REPO / "src" / "repro" / "bench",
    REPO / "src" / "repro" / "faults",
    REPO / "src" / "repro" / "net",
    REPO / "src" / "repro" / "issl",
    REPO / "src" / "repro" / "porting",
    REPO / "src" / "repro" / "unixsim",
    REPO / "src" / "repro" / "core",
]

#: Simulation packages whose output must be byte-identical per seed:
#: the determinism sanitizer (PY105/PY106) must hold here with *zero*
#: allow-annotations -- the one wall clock in ``src/repro`` is the bench
#: snapshot's creation stamp.
SIMULATION_TREES = [
    REPO / "src" / "repro" / "rabbit",
    REPO / "src" / "repro" / "net",
    REPO / "src" / "repro" / "dync",
    REPO / "src" / "repro" / "issl",
    REPO / "src" / "repro" / "faults",
    REPO / "src" / "repro" / "services",
]


#: The from-scratch crypto is the specification the tests check
#: ``repro.crypto.host`` against; the running system may not use it.
REFERENCE_CRYPTO = {
    "repro.crypto.aes_ttable",
    "repro.crypto.hmac",
    "repro.crypto.md5",
    "repro.crypto.rijndael",
    "repro.crypto.sha1",
}

#: Code that must get its host crypto from ``repro.crypto.host`` alone.
HOST_CRYPTO_CONSUMERS = [
    REPO / "src" / "repro" / "issl",
    REPO / "src" / "repro" / "services",
    REPO / "src" / "repro" / "faults",
    REPO / "src" / "repro" / "crypto" / "kdf.py",
    REPO / "src" / "repro" / "crypto" / "prng.py",
]

HOST_PY = REPO / "src" / "repro" / "crypto" / "host.py"

#: CBC reaches issl only through ``host.cbc_*`` and their memo.
MODES_CBC = (modes.cbc_encrypt, modes.cbc_decrypt)

FANOUT_PY = REPO / "src" / "repro" / "fanout.py"


def _errors(diagnostics):
    return [d for d in diagnostics if d.severity == Severity.ERROR]


def reference_crypto_imports(source: str) -> list[str]:
    """Reference crypto modules ``source`` imports, directly or as names
    the ``repro.crypto`` package re-exports from them."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name in REFERENCE_CRYPTO]
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                origin = node.module
                if origin.startswith("repro.crypto"):
                    target = getattr(importlib.import_module(origin),
                                     alias.name, None)
                    origin = getattr(target, "__module__", None) or getattr(
                        target, "__name__", origin)
                found += [m for m in (node.module, origin)
                          if m in REFERENCE_CRYPTO]
    return sorted(set(found))


def modes_cbc_imports(source: str) -> list[str]:
    """Names ``source`` imports that are ``modes.cbc_encrypt`` or
    ``modes.cbc_decrypt``, directly or re-exported by ``repro.crypto``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.startswith("repro.crypto"):
            module = importlib.import_module(node.module)
            found += [alias.name for alias in node.names
                      if getattr(module, alias.name, None) in MODES_CBC]
    return sorted(found)


def test_repo_trees_lint_clean():
    diagnostics = analyze_paths(LINTED_TREES)
    assert _errors(diagnostics) == [], "\n".join(
        d.format() for d in _errors(diagnostics)
    )


def test_repo_trees_have_no_undocumented_warnings():
    diagnostics = analyze_paths(LINTED_TREES)
    assert diagnostics == [], "\n".join(d.format() for d in diagnostics)


def test_simulation_packages_are_deterministic():
    """PY105/PY106 over every simulation package, with no escapes.

    An allow(PY105/PY106) annotation is acceptable in harness code
    (the bench snapshot's stamp) but never in the simulation
    itself: here the sanitizer must pass on the raw sources too, so a
    wall-clock read cannot be annotated into the simulator.
    """
    diagnostics = [d for d in analyze_paths(SIMULATION_TREES)
                   if d.rule in ("PY105", "PY106")]
    assert diagnostics == [], "\n".join(d.format() for d in diagnostics)
    for tree in SIMULATION_TREES:
        for path in tree.rglob("*.py"):
            assert "allow(PY105" not in path.read_text(), (
                f"{path}: simulation code may not suppress the "
                "determinism sanitizer"
            )


def test_obs_wall_clock_is_confined_to_trace_spans():
    """The obs package -- tracer, flight recorder, mergeable metrics,
    SLO engine, sampling profiler -- is deterministic by construction:
    traces, recorder dumps and metric snapshots must merge
    byte-identically across ``--jobs`` fan-out.  The tracer's spans carry
    simulated time only, so no obs module, ``trace.py`` included, may
    annotate a wall-clock read; an allow() anywhere in the package is a
    new nondeterminism sneaking in."""
    obs = REPO / "src" / "repro" / "obs"
    for path in obs.rglob("*.py"):
        assert "allow(PY10" not in path.read_text(), (
            f"{path}: obs may not read the wall clock"
        )
    diagnostics = [d for d in analyze_paths([obs])
                   if d.rule in ("PY105", "PY106")]
    assert diagnostics == [], "\n".join(d.format() for d in diagnostics)


def test_bench_and_experiments_read_the_clock_only_for_the_stamp():
    """A bench snapshot and an experiment record are simulated,
    seed-determined content; the one wall-clock read in either package
    is the snapshot's ``created_unix``/``created_iso`` stamp.  Host time
    is measured by ``benchmarks/perf``, not here."""
    sites = [
        (str(path.relative_to(REPO)), line.strip())
        for tree in ("bench", "experiments")
        for path in sorted((REPO / "src" / "repro" / tree).rglob("*.py"))
        for line in path.read_text().splitlines()
        if "allow(PY105" in line
    ]
    assert sites == [(
        "src/repro/bench/snapshot.py",
        "created = time.time()  # dclint: allow(PY105)",
    )]


def test_the_bench_stamp_is_the_only_wall_clock_read():
    """Everything ``src/repro`` writes is simulated, seed-determined
    content, so the one wall-clock read the determinism sanitizer may be
    told to allow anywhere in the package is the bench snapshot's stamp."""
    src = REPO / "src" / "repro"
    sites = [
        (str(path.relative_to(REPO)), line.strip())
        for path in sorted(src.rglob("*.py"))
        for line in path.read_text().splitlines()
        if re.search(r"#.*allow\(PY10[56]", line)
    ]
    assert sites == [(
        "src/repro/bench/snapshot.py",
        "created = time.time()  # dclint: allow(PY105)",
    )]


def test_host_crypto_is_the_only_way_in():
    """issl, the services, the fault campaign, the key derivation and the
    seeded RNG ask ``repro.crypto.host`` for crypto, never the reference
    modules it is tested against."""
    paths = []
    for root in HOST_CRYPTO_CONSUMERS:
        paths += sorted(root.rglob("*.py")) if root.is_dir() else [root]
    offenders = {
        str(path.relative_to(REPO)): imports for path in paths
        if (imports := reference_crypto_imports(path.read_text()))
    }
    assert offenders == {}


def test_issl_gets_cbc_from_host():
    offenders = {
        str(path.relative_to(REPO)): names
        for path in sorted((REPO / "src" / "repro" / "issl").rglob("*.py"))
        if (names := modes_cbc_imports(path.read_text()))
    }
    assert offenders == {}


@pytest.mark.parametrize("source, expected", [
    ("from repro.crypto.modes import cbc_encrypt, pkcs7_pad",
     ["cbc_encrypt"]),
    ("from repro.crypto import cbc_decrypt as dec", ["cbc_decrypt"]),
    ("from repro.crypto.host import cbc_decrypt, cbc_encrypt", []),
    ("from repro.crypto import host, modes", []),
])
def test_modes_cbc_import_check(source, expected):
    assert modes_cbc_imports(source) == expected


@pytest.mark.parametrize("source, expected", [
    ("from repro.crypto.sha1 import sha1", ["repro.crypto.sha1"]),
    ("import repro.crypto.md5", ["repro.crypto.md5"]),
    ("from repro.crypto import Hmac, rsa", ["repro.crypto.hmac"]),
    ("from repro.crypto import rijndael", ["repro.crypto.rijndael"]),
    ("from repro.crypto import host\nimport hashlib", []),
])
def test_reference_crypto_import_check(source, expected):
    assert reference_crypto_imports(source) == expected


def test_host_crypto_is_sanitizer_clean():
    assert analyze_paths([HOST_PY]) == []
    assert "allow(PY10" not in HOST_PY.read_text()


def imports_multiprocessing(source: str) -> bool:
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "multiprocessing" for name in names):
            return True
    return False


def test_fanout_is_the_only_process_pool():
    """Every ``--jobs N`` fan-out goes through ``repro.fanout``."""
    src = REPO / "src" / "repro"
    importers = sorted(
        str(path.relative_to(src)) for path in src.rglob("*.py")
        if imports_multiprocessing(path.read_text())
    )
    assert importers == ["fanout.py"]


@pytest.mark.parametrize("source, expected", [
    ("import multiprocessing", True),
    ("def f():\n    import multiprocessing.pool", True),
    ("from multiprocessing import Pool", True),
    ("import concurrent.futures", False),
])
def test_multiprocessing_import_check(source, expected):
    assert imports_multiprocessing(source) is expected


def test_fanout_is_sanitizer_clean():
    assert analyze_paths([FANOUT_PY]) == []
    assert "allow(PY10" not in FANOUT_PY.read_text()


def test_parallel_selflint_matches_serial():
    """--jobs fan-out must not change the diagnostic stream."""
    serial = analyze_paths(LINTED_TREES)
    parallel = analyze_paths(LINTED_TREES, jobs=4)
    assert [d.format() for d in parallel] == [d.format() for d in serial]


def test_figure3_firmware_lints_clean():
    assert analyze_dync_source(FIGURE3_MAIN_SOURCE) == []


def test_generated_firmware_lints_clean():
    """f-string sources static extraction cannot see, linted by import."""
    for source in (AES_C_SOURCE, generate_source(32), main_source(3)):
        assert _errors(analyze_dync_source(source)) == []


def test_fourth_handler_requires_recompile():
    """The paper's trade-off, statically: one more handler costatement
    than the Figure 3 cap is a DC003 finding, not a silent queue."""
    rules = [d.rule for d in analyze_dync_source(main_source(4))]
    assert rules == ["DC003"]


def test_unshared_stats_is_a_torn_write():
    rules = [d.rule for d in analyze_dync_source(
        main_source(3, shared_stats=False)
    )]
    assert rules == ["DC004"]
