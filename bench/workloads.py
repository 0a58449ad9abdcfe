"""The benchmark's workloads: what one unit of work is, and its sizes.

A unit is one or more parts; each part runs in a fresh worker process, so
set-up, peak memory and the mBm factor cache are per process, as a CLI
user has them. Runs repeat whole units, so every run has the same mix of
path kinds. ``unit_s`` is the typical wall time of one unit on a
2-core machine; a traced run makes round(seconds / (2.2 * unit_s))
pairs of untraced and traced units. ``SMOKE`` shrinks every size so all
four workloads run in seconds.
"""

from __future__ import annotations

MESHES = (64, 128, 256, 512, 1024)
REFERENCE_N = 2 ** 14
ENVELOPE_N = 256
ENVELOPE_BLOCK = 10  # paths per latency sample in envelope_short_paths
CANARY_SEED = 424_242

# Why each workload exists: README.md here and BENCHMARK.json.
WORKLOADS = {
    "cli_fbm_closed": {
        "unit_s": 5.5,
        "parts": [
            {"kind": "cli", "config": "cir_fbm.json"},
            {"kind": "cli", "config": "tsb_fbm.json"},
        ],
    },
    "cli_mbm_generic": {
        "unit_s": 5.5,
        "parts": [{"kind": "cli", "config": "power_mbm.json"}],
    },
    "convergence_fbm": {
        "unit_s": 4.2,
        "parts": [{"kind": "study", "families": [
            {"config": "cir_fbm.json", "paths": 10, "seed_offset": 0},
            {"config": "tsb_fbm.json", "paths": 5, "seed_offset": 500},
        ]}],
    },
    "envelope_short_paths": {
        "unit_s": 4.2,
        "parts": [{"kind": "envelope", "paths": 100, "families": [
            {"config": "cir_fbm.json", "seed_offset": 0},
            {"config": "tsb_fbm.json", "seed_offset": 200},
            {"config": "power_mbm.json", "seed_offset": 400},
        ]}],
    },
}

# Sizes of the smoke run: every workload, every check, a few seconds.
SMOKE = {"N": 256, "cli_paths": 2, "study_paths": 4, "study_meshes": (64, 128, 256),
         "study_reference_n": 2048, "envelope_paths": 5}


def unit_seed(seed: int, unit: int) -> int:
    """First noise seed of a unit; units and workload seeds never overlap."""
    return 10_000_000 * (seed + 1) + 1_000 * unit
