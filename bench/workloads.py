"""The benchmark's workloads, as occfill config mappings.

Each workload is a full mapping of the occfill config keys the checks
depend on; the config file handed to the CLI holds all of them, so the
expected counts are known here without asking occfill. The seed is not
part of a mapping: the benchmark takes it as an argument and passes it to
every subcommand with `--seed`.
"""

# The values of occfill's default config for the keys the checks read.
BASE = {
    "world.channels": 16,
    "world.grid_x": 7,
    "world.grid_y": 7,
    "data.train_visible": 800,
    "data.train_occluded": 300,
    "data.train_background": 300,
    "data.eval_pedestrians": 500,
    "data.eval_background": 500,
    "data.proposals_per_image": 10,
    "proto.k": 5,
    "train1.iterations": 2000,
    "train2.iterations": 2000,
    "eval.fppi_count": 9,
}

# Sizes are chosen so that a 50-second run holds four to five rounds.
WORKLOADS = {
    # The default config with a fifth of its adversarial iterations. The
    # adversarial step and the eval probe run small dense layers, bound by
    # per-call overhead; each iteration is the same as in the full run.
    "default": {**BASE,
                "train1.iterations": 400,
                "train2.iterations": 400},
    # 5x the default's occluded, background and eval proposals with a tenth
    # of its adversarial iterations: synthesis, dataset I/O, the
    # per-proposal analysis chain and miss-rate matching dominate. The
    # k-means pool stays at the default's 800 points: the number of Lloyd
    # iterations depends on the seed, and on a larger pool that swing would
    # swamp every other layer of `build-prototypes` and `synth-data`.
    "bulk": {**BASE,
             "data.train_occluded": 1500,
             "data.train_background": 1500,
             "data.eval_pedestrians": 2000,
             "data.eval_background": 2000,
             "train1.iterations": 200,
             "train2.iterations": 200},
}

# A pipeline that runs in about a second, always on seed 0. It warms
# imports, the allocator and BLAS before the timed stages, and it is the
# tracer test's workload. Its eval set is below the probe's 40-sample
# minimum, so eval skips the probe.
WARMUP = {**BASE,
          "data.train_visible": 60,
          "data.train_occluded": 40,
          "data.train_background": 30,
          "data.eval_pedestrians": 40,
          "data.eval_background": 40,
          "proto.k": 3,
          "proto.restarts": 2,
          "train1.iterations": 20,
          "train2.iterations": 20,
          "head.iterations": 20}
WARMUP_SEED = 0


def config_text(mapping):
    """The flat `key = value` text the occfill CLI reads with --config."""
    return "".join(f"{key} = {value}\n" for key, value in mapping.items())
