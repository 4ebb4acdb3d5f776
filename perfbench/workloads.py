"""Seeded task lists for the benchmark workloads.

A task is one ``spinlens run`` config plus the key under which its reference
values are stored. The same (workload, seed, seconds, size) always gives the
same list; nothing here imports spinlens.

Parameters that set a task's cost (J_z, sigma0 of the optimizer, N) are fixed
per slot, drawn in pairs of equal sum, or jittered by 2%, so every run of a
workload does nearly the same amount of work whatever the seed. Parameters
that do not set the cost (packet widths, lens strengths of the oracle task,
the order of the tasks) are drawn freely. NOTES.md gives the reasons behind each workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("lens_design", "blockade", "disorder")
SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Task:
    key: str        # variant name; reference values are stored under it
    check: str      # "optimizer" | "ensemble" | "blockade" | "free_fermion"
    optype: str     # operator family, for the input record
    slot: str       # the task's place in a round; timings are grouped by it
    config: dict    # exactly what `spinlens run --config` receives


# Seconds one round of tasks takes on the reference machine (2-core Xeon,
# see NOTES.md); a run holds round(seconds / ROUND_S) rounds, at least one.
ROUND_S = {
    "full": {"lens_design": 6.0, "blockade": 6.0, "disorder": 2.3},
    "tiny": {"lens_design": 2.0, "blockade": 0.5, "disorder": 0.4},
}

# --- lens_design ------------------------------------------------------------

LENS = {
    "full": {"n": 200, "n_time": 40,
             "pairs": [(9, 15), (10, 14), (11, 13), (12, 12)]},
    "tiny": {"n": 60, "n_time": 40,
             "pairs": [(4, 7), (5, 6), (4, 6), (5, 7)]},
}
LR_ALPHAS = (3, 6)


def lens_sigmas(size: str) -> list:
    return sorted({s for pair in LENS[size]["pairs"] for s in pair})


def optimizer_key(size: str, family: str, sigma0) -> str:
    """Reference key of one optimize_lens result (family: thick, thin, lr3, lr6)."""
    return f"{size}/{family}-s{sigma0:g}"


def _scaling_task(size, kind, pair):
    p = LENS[size]
    cfg = {"scenario": "scaling_fit",
           "lattice": {"extents": [p["n"]]},
           "scan": {"sigma0": [float(s) for s in pair], "kinds": [kind],
                    "orders": [2]},
           "evolution": {"n_time": p["n_time"]}}
    return Task(f"{size}/{kind}-s{pair[0]:g}-s{pair[1]:g}", "optimizer",
                f"{size}/lens_{kind}", kind, cfg)


def _longrange_task(size, alpha, sigma0):
    p = LENS[size]
    cfg = {"scenario": "longrange_alpha",
           "lattice": {"extents": [p["n"]]},
           "packet": {"sigma0": float(sigma0)},
           "scan": {"alphas": [float(alpha)], "include_nn": False},
           "evolution": {"n_time": p["n_time"]}}
    return Task(optimizer_key(size, f"lr{alpha}", sigma0), "optimizer",
                f"{size}/lens_lr{alpha}", f"lr{alpha}", cfg)


def optimizer_variants(size: str) -> list:
    """Tasks that together produce every optimizer reference key of a size."""
    out = [_scaling_task(size, kind, pair)
           for pair in LENS[size]["pairs"] for kind in ("thick", "thin")]
    return out + [_longrange_task(size, a, s)
                  for s in lens_sigmas(size) for a in LR_ALPHAS]


def _lens_slots(rng, size):
    # Each sigma0 pair sums to the same value, so the pair's cost hardly
    # depends on which is drawn; the two long-range tasks split one pair.
    thick, thin, lr = rng.sample(LENS[size]["pairs"], 3)
    lr = list(lr)
    rng.shuffle(lr)
    return [_scaling_task(size, "thick", thick),
            _scaling_task(size, "thin", thin),
            _longrange_task(size, 3, lr[0]),
            _longrange_task(size, 6, lr[1])]


# --- blockade -------------------------------------------------------------

BLOCKADE = {
    "full": {"n2": 61, "jz2": 1500.0, "nu3": ((51, 40.0), (61, 20.0)),
             "v0": 0.01, "sigma0": (6.0, 12.0), "v0_free": (0.005, 0.02)},
    "tiny": {"n2": 21, "jz2": 100.0, "nu3": ((13, 6.0), (15, 5.0)),
             "v0": 0.05, "sigma0": (2.0, 4.0), "v0_free": (0.03, 0.08)},
}
# Half-width of the seeded jitter of J_z around each slot's centre, as a
# fraction of the centre. A task's phase, and so its cost, is proportional
# to J_z, so this bounds how far the seed moves a run's cost.
_JZ_JITTER = 0.02


def _nonlinear_task(size, nu, n, jz, v0, sigma0, check="blockade"):
    cfg = {"scenario": "nonlinear",
           "lattice": {"extents": [n]},
           "packet": {"sigma0": sigma0},
           "lens": {"v0": v0},
           "interaction": {"nu": nu, "jz": jz}}
    tag = "free" if check == "free_fermion" else f"nu{nu}"
    key = f"{size}/{tag}-n{n}-jz{jz:g}-v{v0:g}-s{sigma0:g}"
    return Task(key, check, f"{size}/blockade_{tag}_n{n}", f"{tag}_n{n}", cfg)


def _blockade_slots(rng, size):
    p = BLOCKADE[size]

    def sigma():
        return round(rng.uniform(*p["sigma0"]), 2)

    def jz(centre):
        return round(centre * (1.0 + _JZ_JITTER * (2.0 * rng.random() - 1.0)), 2)

    tasks = [_nonlinear_task(size, 2, p["n2"], 0.0,
                             round(rng.uniform(*p["v0_free"]), 5), sigma(),
                             check="free_fermion"),
             _nonlinear_task(size, 2, p["n2"], jz(p["jz2"]), p["v0"], sigma())]
    return tasks + [_nonlinear_task(size, 3, n, jz(centre), p["v0"], sigma())
                    for n, centre in p["nu3"]]


# --- disorder ---------------------------------------------------------------

DISORDER = {
    "full": {"holes1d": {"n": 70, "sigma0": 14.0, "counts": (1, 2, 3),
                         "realizations": 200, "seeds": (101, 102, 103, 104, 105)},
             "holes2d": {"n": 41, "sigma0": 6.0, "counts": tuple(range(3, 11)),
                         "realizations": 60, "seeds": (101, 102)},
             "displacement": {"n": 200, "sigma0": 20.0,
                              "deltas": (0.001, 0.001389, 0.001931, 0.002683,
                                         0.003728, 0.005179, 0.007197, 0.01),
                              "realizations": 100, "broadening": 20,
                              "seeds": (101, 102)}},
    "tiny": {"holes1d": {"n": 30, "sigma0": 4.0, "counts": (1, 2),
                         "realizations": 6, "seeds": (101, 102)},
             "holes2d": {"n": 11, "sigma0": 2.0, "counts": (1, 2),
                         "realizations": 4, "seeds": (101, 102)},
             "displacement": {"n": 40, "sigma0": 4.0, "deltas": (0.001, 0.01),
                              "realizations": 5, "broadening": 2,
                              "seeds": (101, 102)}},
}


def _ensemble_task(size, family, q, value, seed):
    cfg = {"master_seed": seed, "packet": {"sigma0": q["sigma0"]}}
    if family == "displacement":
        cfg.update(scenario="displacement", lattice={"extents": [q["n"]]},
                   coupling={"model": "powerlaw", "alpha": 6.0},
                   disorder={"delta": value, "realizations": q["realizations"]},
                   broadening={"realizations": q["broadening"]})
        tag = f"d{value:g}"
    else:
        cfg.update(scenario="holes",
                   lattice={"extents": [q["n"]] * (2 if family == "holes2d" else 1)},
                   disorder={"count": value, "realizations": q["realizations"]})
        tag = f"c{value}"
    return Task(f"{size}/{family}-{tag}-m{seed}", "ensemble",
                f"{size}/disorder_{family}", family, cfg)


def ensemble_variants(size: str) -> dict:
    """Every ensemble task of a size, grouped by family, in a fixed order."""
    out = {}
    for family, q in DISORDER[size].items():
        values = q["deltas"] if family == "displacement" else q["counts"]
        out[family] = [_ensemble_task(size, family, q, v, seed)
                       for seed in q["seeds"] for v in values]
    return out


# --- task lists -------------------------------------------------------------


def n_rounds(workload: str, seconds: float, size: str) -> int:
    return max(1, round(seconds / ROUND_S[size][workload]))


def make_tasks(workload: str, seed: int, seconds: float, size: str = "full") -> list:
    """The seeded, fixed task list of one run: its rounds, one after the other.

    Every round holds one task per slot, in a seeded order. In lens_design
    and blockade a slot is the same config in every round. In disorder a
    slot is an ensemble family, and each round deals a fresh variant of it
    (dealt without replacement, cycling only when a run holds more rounds
    than variants), so no Hamiltonian repeats within a run.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; expected one of {SIZES}")
    rng = random.Random(f"{workload}/{size}/{seed}")
    rounds = n_rounds(workload, seconds, size)
    if workload == "disorder":
        pools = list(ensemble_variants(size).values())
        for pool in pools:
            rng.shuffle(pool)
        blocks = [[pool[r % len(pool)] for pool in pools] for r in range(rounds)]
    else:
        slots = (_lens_slots if workload == "lens_design" else _blockade_slots)(rng, size)
        blocks = [list(slots) for _ in range(rounds)]
    tasks = []
    for block in blocks:
        rng.shuffle(block)
        tasks += block
    return tasks
