"""Per-draw reference for ``glyrl.synthgen.generate``.

This is the generator's hour loop as it was before its draws were batched:
``Generator.choice`` for each categorical draw, ``Generator.uniform`` for
the glucose reading, and one scalar ``random()`` per hazard check, in the
order the loop needs them.  The tests run it next to the library and
require the same CSV text and the same ground truth, so every patient's
stream must yield the same doubles in the same order on both paths.
"""

from __future__ import annotations

import io
from typing import Dict, List, Optional, Tuple

import numpy as np

from glyrl.cohort import FIXED_COLUMNS
from glyrl.synthgen import (GeneratorConfig, GroundTruth, _STATIC_CELLS,
                            _bin_bounds, solve_ground_truth)


def generate(config: GeneratorConfig) -> Tuple[str, GroundTruth]:
    config.validate()
    L, A = config.n_latent_states, config.n_actions
    header = ",".join(FIXED_COLUMNS + tuple(config.covariate_names))
    out = io.StringIO()
    out.write(header + "\n")
    latent_states: Dict[str, List[int]] = {}

    pid_width = max(5, len(str(config.n_patients - 1)))
    for i in range(config.n_patients):
        rng = np.random.default_rng([config.seed, i])
        pid = "synth-%0*d" % (pid_width, i)
        z = int(rng.choice(L, p=config.initial_distribution))
        hours: List[Tuple[int, float, List[Optional[float]]]] = []
        zs: List[int] = []
        died = False
        t = 0
        while True:
            a = int(rng.choice(A, p=config.behavioral_policy[z]))
            lo, hi = _bin_bounds(config.bin_edges, a)
            glucose = float(rng.uniform(lo, hi))
            covs: List[Optional[float]] = []
            noise = rng.normal(size=config.n_covariates)
            miss = rng.random(config.n_covariates)
            for j in range(config.n_covariates):
                if t > 0 and miss[j] < config.missing_prob:
                    covs.append(None)
                else:
                    covs.append(float(config.emission_means[z, j]
                                      + config.emission_scales[j] * noise[j]))
            hours.append((t, glucose, covs))
            zs.append(z)

            z_next = int(rng.choice(L, p=config.transition[z, a]))
            t += 1
            if t >= config.horizon_hours:
                break
            if t >= 2:
                u_death = float(rng.random())
                u_discharge = float(rng.random())
                if u_death < config.death_hazard[z_next]:
                    died = True
                    break
                if u_discharge < config.discharge_hazard[z_next]:
                    break
            z = z_next

        latent_states[pid] = zs
        static_cells = [_STATIC_CELLS[c] for c in FIXED_COLUMNS[2:15]]
        for t_idx, glucose, covs in hours:
            cells = [pid, str(t_idx)]
            cells += static_cells
            cells.append("1" if died else "0")
            cells.append(repr(glucose))
            cells.append("arterial")
            cells += ["" if v is None else repr(v) for v in covs]
            out.write(",".join(cells) + "\n")

    solution = solve_ground_truth(config)
    truth = GroundTruth(
        n_latent_states=L,
        gamma=config.gamma,
        pi_star=solution.policy.copy(),
        v_star=solution.V.copy(),
        latent_states=latent_states,
        seed=config.seed,
    )
    return out.getvalue(), truth
