#!/usr/bin/env python3
"""Walk a raw cohort CSV through parsing, filtering, imputation, and
normalization, printing what each step changes.

Uses a small synthetic cohort so the script is self-contained; point
parse_cohort at a real extract to watch the same steps on real data.
"""

import io

import numpy as np

from glyrl import synthgen
from glyrl.cohort import (
    apply_normalization,
    filter_cohort,
    fit_normalization,
    impute_cohort,
    parse_cohort,
    split_patients,
)
from glyrl.config import PreprocessingConfig

COVARIATES = ["heart_rate", "mean_bp", "lactate", "creatinine"]


def main():
    csv_text, _ = synthgen.generate(
        synthgen.ladder_config(80, seed=1, missing_prob=0.08))
    cohort = parse_cohort(io.StringIO(csv_text), COVARIATES)
    print("parsed %d patients, %d hourly rows"
          % (len(cohort.ids), len(cohort.values)))

    kept, exclusions = filter_cohort(cohort, PreprocessingConfig())
    print("\nfilter (age >= 18, SOFA >= 2, <= 10%% missing): kept %d"
          % len(kept.ids))
    for reason, count in sorted(exclusions.items()):
        print("  excluded %-38s %d" % (reason, count))

    imputed, dropped = impute_cohort(kept)
    # the first imputed patient's rows, before and after imputation
    pid = imputed.ids[0]
    p = int(np.searchsorted(kept.ids, pid))
    before = kept.values[kept.bounds[p]:kept.bounds[p + 1]]
    after = imputed.values[:imputed.bounds[1]]
    print("\nimputation: patient %s had %d missing cells, now %d"
          % (pid, np.isnan(before).sum(), np.isnan(after).sum()))
    print("  hour 0 covariates before:",
          ["None" if np.isnan(v) else "%.1f" % v for v in before[0]])
    print("  hour 0 covariates after: ", ["%.1f" % v for v in after[0]])
    if dropped:
        print("  dropped %d patients with an all-missing covariate"
              % len(dropped))

    survived = ~imputed.patients["died_within_90d"]
    train_at, test_at = split_patients(imputed.ids, survived,
                                       test_fraction=0.2, seed=0)
    print("\nsplit: %d train / %d test, stratified on outcome" %
          (len(train_at), len(test_at)))
    print("  train mortality %.3f, test mortality %.3f"
          % (np.mean(~survived[train_at]), np.mean(~survived[test_at])))

    train = imputed.take(train_at)
    spec = fit_normalization(train)
    stacked = apply_normalization(train, spec)
    print("\nnormalization fit on the training split only:")
    print("  state matrix %d hours x %d features, range [%.3f, %.3f]"
          % (stacked.shape[0], stacked.shape[1],
             stacked.min(), stacked.max()))
    for name, lo, hi in list(zip(spec.feature_names, spec.mins, spec.maxs))[-4:]:
        print("  %-12s train range [%8.2f, %8.2f] -> [0, 1]" % (name, lo, hi))


if __name__ == "__main__":
    main()
