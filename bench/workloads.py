"""The benchmark's workloads: one driftlab config per workload and seed.

Every input of a run derives from the benchmark seed: the corpus seed, the
evaluation seed and the single training seed. The same seed always gives the
same config text, so the same corpus, cells and output files.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    runner: str  # "drift" or "matrix": the CLI command whose runner is timed
    body: str  # config text without the seed-dependent keys


KL_FEEDFORWARD = Workload(
    name="kl_feedforward",
    runner="matrix",
    body="""\
[task]
modulus = 7
chain_length = 4
ops = ADD,MUL
n_problems = 750
max_len = 24
samples_per_problem = 1
corpus_seed = {corpus_seed}

[teacher]
epsilon_instructed = 0.05
epsilon_plain = 0.3
instructed = true

[train]
family = feedforward
order = 2
embed_dim = 8
hidden_dim = 32
optimizer = adam
learning_rate = 0.01
epochs = 2
batch_size = 16
seeds = {train_seed}

[objective.fkl]
base = forward-kl
transform = constant-one

[objective.skl_sigmoid]
base = symmetric-kl
transform = sigmoid
tau = 1.0

[eval]
horizons = 2,4,8,16
eval_size = 100
drift_problems = 60
eval_seed = {eval_seed}
""",
)

LONG_CHAIN_EVAL = Workload(
    name="long_chain_eval",
    runner="drift",
    body="""\
[task]
modulus = 11
chain_length = 8
ops = ADD,MUL
n_problems = 300
max_len = 32
samples_per_problem = 1
corpus_seed = {corpus_seed}

[teacher]
epsilon_instructed = 0.05
epsilon_plain = 0.3
instructed = true

[train]
family = tabular
order = 2
learning_rate = 1.0
optimizer = sgd
epochs = 1
batch_size = 16
seeds = {train_seed}

[objective.sft]
base = SFT
transform = constant-one

[objective.gkd]
base = GKD
gkd_lambda = 0.5
gkd_beta = 0.5

[eval]
horizons = 2,4,8,16,32
eval_size = 300
drift_problems = 500
eval_seed = {eval_seed}
""",
)

WORKLOADS = {w.name: w for w in (KL_FEEDFORWARD, LONG_CHAIN_EVAL)}


def config_text(workload: Workload, seed: int) -> str:
    """Config for one benchmark seed."""
    if seed < 0:
        raise ValueError("the benchmark seed must be >= 0")
    return workload.body.format(corpus_seed=1234 + seed, eval_seed=7 + seed, train_seed=seed)
