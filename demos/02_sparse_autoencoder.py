#!/usr/bin/env python3
"""Train the sparse autoencoder on normalized cohort states and show what
the sparsity penalty does to the latent code.

Two runs on the same data: beta=0 (plain autoencoder) versus the default
KL penalty. The penalized run pushes mean activations toward the target
rate while giving up a little reconstruction error.
"""

import dataclasses
import io

import numpy as np

from glyrl import synthgen
from glyrl.cohort import (
    apply_normalization,
    filter_cohort,
    fit_normalization,
    impute_cohort,
    parse_cohort,
)
from glyrl.config import EncoderConfig, PreprocessingConfig
from glyrl.encoder import encode, sparse_loss, train

COVARIATES = ["heart_rate", "mean_bp", "lactate", "creatinine"]


def training_matrix(n_patients=150, seed=4):
    csv_text, _ = synthgen.generate(synthgen.ladder_config(n_patients, seed=seed))
    cohort = parse_cohort(io.StringIO(csv_text), COVARIATES)
    kept, _ = filter_cohort(cohort, PreprocessingConfig())
    imputed, _ = impute_cohort(kept)
    spec = fit_normalization(imputed)
    return apply_normalization(imputed, spec)


def main():
    X = training_matrix()
    print("training on %d hourly states with %d features" % X.shape)

    target = 0.05

    for beta in (0.0, 3.0):
        config = EncoderConfig(latent_dim=16, sparsity_target=target, beta=beta,
                               epochs=30, batch_size=64, learning_rate=0.05)
        params = train(X, config, seed=0)
        H = encode(X, params)
        rho = H.mean(axis=0)
        recon = sparse_loss(X, params, dataclasses.replace(config, beta=0.0))
        print("\nbeta = %.1f" % beta)
        print("  final loss        %.5f (reconstruction only: %.5f)"
              % (params.loss_history[-1], recon))
        print("  mean activation   %.3f (target %.2f)" % (rho.mean(), target))
        print("  units within 2x of target: %d / %d"
              % (int(np.sum(rho < 2 * target)), len(rho)))
        print("  loss by epoch: %s ..."
              % ", ".join("%.4f" % v for v in params.loss_history[:5]))


if __name__ == "__main__":
    main()
