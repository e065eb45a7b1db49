"""E2: the C-level optimization sweep (paper, Section 6).

"We tried a variety of optimizations on the C code, including moving
data to root memory, unrolling loops, disabling debugging, and enabling
compiler optimization, but this only improved run time by perhaps 20%."

One run per knob (individually) plus all-knobs-on, all over the same
key/block workload as E1.
"""

from __future__ import annotations

from repro.dync.compiler import CompilerOptions
from repro.experiments.aes_builds import BUILDS
from repro.experiments.e1_aes import measure_implementation, measure_profiled
from repro.experiments.harness import ExperimentResult
from repro.obs.profile import compiled_function_symbols

#: The sweep: label -> options.  The baseline is Dynamic C out of the
#: box (debug on, tables in wait-stated flash).
SWEEP: tuple[tuple[str, CompilerOptions], ...] = (
    ("baseline (debug, flash data)", CompilerOptions()),
    ("+ data to root RAM", CompilerOptions(data_placement="root_ram")),
    ("+ loop unrolling", CompilerOptions(unroll=True)),
    ("+ disable debugging", CompilerOptions(debug=False)),
    ("+ compiler optimization", CompilerOptions(optimize=True)),
    ("data in xmem (worse)", CompilerOptions(data_placement="xmem")),
    (
        "all optimizations",
        CompilerOptions(debug=False, optimize=True, unroll=True,
                        data_placement="root_ram"),
    ),
)


def _profiled(options: CompilerOptions, keys: int, blocks_per_key: int,
              label: str):
    """``(run, profile rows)`` for a profiled sweep point: a kept run
    with rows for exactly this workload, or a new run, kept."""
    kept = BUILDS.profiled(options, keys, blocks_per_key)
    if kept is not None:
        return kept
    implementation = BUILDS.load(options)
    measurement, profiles = measure_profiled(
        implementation, keys, blocks_per_key, label,
        compiled_function_symbols(implementation.program.compilation),
    )
    BUILDS.keep(options, measurement, profiles)
    return measurement, profiles[-1]


def run_e2(keys: int = 1, blocks_per_key: int = 2) -> ExperimentResult:
    """Run the sweep, with per-routine cycle attribution for the two
    interesting endpoints (baseline and all-knobs-on) so the 20% can be
    traced to specific routines.  Every run is kept in
    :data:`~repro.experiments.aes_builds.BUILDS` for E3, a profiled one
    with its rows at each key.

    A profiled endpoint is read from a kept run that recorded rows for
    exactly this workload (with the defaults, E1's baseline run holds
    the baseline's: its first key is this whole workload), and runs
    otherwise."""
    measurements = []
    extra_tables: dict = {}
    profiled = {SWEEP[0][0], SWEEP[-1][0]}
    for label, options in SWEEP:
        if label in profiled:
            measurement, rows = _profiled(options, keys, blocks_per_key,
                                          label)
            extra_tables[f"{label}: cycles by routine"] = rows[:6]
        else:
            measurement = measure_implementation(
                BUILDS.load(options), keys, blocks_per_key, label
            )
            BUILDS.keep(options, measurement)
        measurements.append((label, options, measurement))
    baseline = measurements[0][2].cycles_per_block
    rows = []
    for label, options, measurement in measurements:
        gain = (baseline - measurement.cycles_per_block) / baseline * 100
        rows.append({
            "configuration": label,
            "options": options.describe(),
            "cycles/block": round(measurement.cycles_per_block),
            "vs baseline": f"{gain:+.1f}%",
            "code bytes": measurement.code_size,
        })
    all_on = measurements[-1][2].cycles_per_block
    combined_gain = (baseline - all_on) / baseline * 100
    individual_gains = [
        (baseline - m.cycles_per_block) / baseline * 100
        for label, _opts, m in measurements[1:5]
    ]
    # The paper's finding has two halves: each knob is small, and even
    # all of them together land in the tens of percent -- nowhere near
    # the 10x the assembly buys.
    reproduced = (
        all(gain < 30 for gain in individual_gains)
        and 10 <= combined_gain <= 45
    )
    metrics = {
        "baseline_cycles_per_block": baseline,
        "all_on_cycles_per_block": all_on,
        "combined_gain_pct": combined_gain,
        "min_individual_gain_pct": min(individual_gains),
        "max_individual_gain_pct": max(individual_gains),
        "xmem_cycles_per_block": measurements[5][2].cycles_per_block,
    }
    return ExperimentResult(
        experiment_id="E2",
        title="C optimization sweep: root data, unrolling, nodebug, optimizer",
        paper_claim="all of it together improved run time by perhaps 20%",
        rows=rows,
        metrics=metrics,
        summary=(
            f"individual knobs {min(individual_gains):.1f}%.."
            f"{max(individual_gains):.1f}%, all together "
            f"{combined_gain:.1f}% -- far short of the assembly's 10x+"
        ),
        reproduced=reproduced,
        extra_tables=extra_tables,
    )
