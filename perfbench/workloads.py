"""The benchmark's workloads: config text for rtkbench.

Every workload starts from the shipped `mog-paper` preset text (12-mode ring,
d = 10, five reverse segments, 2000 chains) and changes config keys only.
Grids keep the preset's batch shape and keep a prefix of its budget list, so
per-call layer costs match the full study while one grid fits a few times
into a run.  Because unit RNGs are spawned by (method index, budget index),
the `paper-grid` rows at seed 0 are byte-identical to the first three
budgets of `rtkbench run` on the preset.
"""

from __future__ import annotations

# Key order matches `rtkbench preset mog-paper`.
PRESET = {
    "experiment.horizon": "6",
    "experiment.methods": "ddpm,ula,uld,mala,mala_es",
    "experiment.nfe_budgets": "50,100,250,500,1000",
    "experiment.n_samples": "2000",
    "experiment.master_seed": "0",
    "experiment.reference_size": "100000",
    "experiment.bins_per_dim": "100",
    "experiment.metric_seed": "1000003",
    "experiment.record_wall": "false",
    "schedule.kind": "fixed",
    "schedule.times": "0,1.2,2.4,3.6,4.8",
    "schedule.eps": "0.1",
    "schedule.max_outer_steps": "64",
    "oracle.score_error": "3",
    "oracle.energy_error": "0",
    "oracle.error_seed": "0",
    "oracle.error_cell": "1000000",
    "steps.tau_multiplier": "5e+10",
    "steps.tau_cap": "0.4",
    "steps.uld_tau_scale": "3",
    "steps.uld_gamma_scale": "0.3",
    "steps.taylor_order": "2",
    "mixture.kind": "ring",
    "mixture.components": "12",
    "mixture.dim": "10",
    "mixture.radius": "1",
    "mixture.variance": "0.007",
}

# Budgets 500 and 1000 are left out of every grid: the full preset takes
# about 50 s on two cores, longer than one measured run may last.  Budget
# 250 is the smallest top budget at which the a6 ordering still holds.
PAPER_GRID = {"experiment.nfe_budgets": "50,100,250"}

WORKLOADS = {
    # Single-cell hashing and the mixture kernel split almost all the time.
    "paper-grid": PAPER_GRID,
    # No error field: the mixture kernel on a (2000, 48, 32) tensor dominates.
    "wide-exact": {
        "experiment.nfe_budgets": "50",
        "oracle.score_error": "0",
        "mixture.components": "48",
        "mixture.dim": "32",
    },
    # One error cell per chain: per-row hashing with LRU misses, plus the
    # energy-difference sign hashing that paper-grid never reaches.
    "fine-field": {
        "experiment.methods": "ula,mala,mala_es",
        "experiment.nfe_budgets": "50",
        "oracle.error_cell": "1e-06",
        "oracle.energy_error": "0.05",
    },
}


def config_text(name: str, seed: int) -> str:
    """The flat config document for workload `name` with master_seed = seed."""
    keys = dict(PRESET, **WORKLOADS[name])
    keys["experiment.master_seed"] = str(seed)
    lines = [f"# rtkbench benchmark workload {name}"]
    lines += [f"{key} = {value}" for key, value in keys.items()]
    return "\n".join(lines) + "\n"


# The host-speed reference (HostClock in worker.py) per workload: the share
# of the grid's time that is per-row Python work like the error-field
# hashing (the rest is numpy mixture kernels on the workload's batch
# shape), and the time of the snippet's kernel pass on the reference host.
# HASH_S is the time of its hashing loop there.  The reference host is a
# 2-core KVM guest on an Intel Xeon (Sapphire Rapids); the times are the
# snippet's medians over calibration runs.
HOST_MIX = {
    "paper-grid": (0.5, 0.0017),  # oracle hashing ~47%, mixture kernel ~36%
    "wide-exact": (0.0, 0.015),   # no hashing; the kernel on (2000, 48, 32)
    "fine-field": (1.0, 0.0017),  # oracle hashing ~90%
}
HASH_S = 0.0011
# Seconds from spawn until a process that only imports numpy is done, on
# the reference host; set-up probes are given in these seconds.
IMPORT_NUMPY_S = 0.135
