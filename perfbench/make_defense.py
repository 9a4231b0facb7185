"""Train the per5min spoofing defense that the collect-defended workload uses.

Run from the root of the checkout:

    python3 perfbench/make_defense.py

It rebuilds the acceptance suite's learning corpus (30 households x 16 days,
seed 42, about 45 % absent days), trains the per5min defense exactly as that
suite does (6,000 balanced windows, 8 epochs, batch 400, learning rate
0.0005, seed 42) and writes its weights, rounded to float32, to
perfbench/data/defense_per5min.npz. Training takes a few minutes on one
core. The weights are stored rather than trained during set-up because
training costs far more than the workload's whole run, and an untrained
defense almost never fires.
"""

import os

import bench_env

bench_env.prepare()

import numpy as np  # noqa: E402

from amisim.cat import CatConfig, patterns_for_traces  # noqa: E402
from amisim.data import SyntheticConfig, synthesize  # noqa: E402
from amisim.defense import (  # noqa: E402
    build_defense,
    build_window_dataset,
    present_runs,
    subsample_windows,
    train_defense,
    window_size,
)
from amisim.nn import TrainConfig  # noqa: E402

import corpus  # noqa: E402

WEIGHTS_PATH = os.path.join(bench_env.BENCH_DIR, "data", "defense_per5min.npz")
SEED = 42


def main():
    traces, truth = synthesize(
        SyntheticConfig(consumer_count=30, day_count=16, rng_seed=SEED, **corpus.CHAIN_HOUSEHOLDS)
    )
    cat = CatConfig(threshold_percent=10.0, granularity_minutes=5)
    patterns, _ = patterns_for_traces(traces, cat)
    by_consumer = {}
    for key in sorted(patterns):
        by_consumer.setdefault(key[0], []).append(key)
    train_keys = [k for keys in by_consumer.values() for k in keys[: round(0.75 * len(keys))]]
    runs = present_runs({k: patterns[k] for k in train_keys}, truth)
    windows = build_window_dataset(runs, n=window_size("per5min"))
    windows = subsample_windows(windows, max_samples=6000, seed=0, balance=True)
    params, history = train_defense(
        windows,
        build_defense("per5min"),
        TrainConfig(epochs=8, batch_size=400, learning_rate=0.0005, rng_seed=SEED),
    )
    arrays = {
        f"{i}/{key}": arr.astype(np.float32)
        for i, layer in enumerate(params.weights)
        for key, arr in layer.items()
    }
    np.savez_compressed(WEIGHTS_PATH, **arrays)
    print(f"final epoch {history[-1]} -> {WEIGHTS_PATH}")


if __name__ == "__main__":
    main()
