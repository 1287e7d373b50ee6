"""Config parsing, hashing, and CLI subcommand contracts."""

import hashlib
import json
import os

import pytest

from driftlab.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from driftlab.config import (
    ConfigError,
    config_hash,
    default_config,
    format_config,
    parse_config,
)
from driftlab.task import read_corpus

SMALL_CONFIG = """
[task]
modulus = 5
chain_length = 2
ops = ADD,MUL
n_problems = 120
samples_per_problem = 1
max_len = 16
corpus_seed = 77

[teacher]
epsilon_instructed = 0.05
epsilon_plain = 0.3
instructed = true

[train]
learning_rate = 0.2
epochs = 1
batch_size = 16
warmup_fraction = 0.05
clip_norm = 1.0
optimizer = sgd
family = tabular
order = 1
seeds = 0,1

[objective.sft]
base = SFT
transform = constant-one

[objective.sigmoid_t1]
base = SFT
transform = sigmoid
tau = 1.0
tau_convention = divide

[eval]
horizons = 2,4,8
eval_size = 60
drift_problems = 30
eval_seed = 5
"""


def write_config(tmp_path, text=SMALL_CONFIG, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def file_hashes(out_dir, names):
    out = {}
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def test_parse_round_trip_and_hash_stability():
    cfg = parse_config(SMALL_CONFIG)
    assert cfg.task.modulus == 5
    assert cfg.train.seeds == (0, 1)
    assert [label for label, _ in cfg.objectives] == ["sft", "sigmoid_t1"]
    assert cfg.objectives[1][1].transform.kind == "sigmoid"
    # hashing survives reformatting: reparse the canonical form
    canon = format_config(cfg)
    assert config_hash(parse_config(canon)) == config_hash(cfg)
    # whitespace and comments do not change the hash
    noisy = SMALL_CONFIG.replace("modulus = 5", "modulus   =    5  ") + "\n# trailing comment\n"
    assert config_hash(parse_config(noisy)) == config_hash(cfg)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        parse_config(SMALL_CONFIG + "\n[task]\n")  # duplicate section
    with pytest.raises(ConfigError):
        parse_config(SMALL_CONFIG.replace("modulus", "modulos"))
    with pytest.raises(ConfigError):
        parse_config(SMALL_CONFIG + "\n[mystery]\nx = 1\n")


def test_duplicate_labels_rejected():
    bad = SMALL_CONFIG + "\n[objective.sft]\nbase = SFT\n"
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_default_config_parses():
    cfg = default_config()
    assert config_hash(cfg) == config_hash(parse_config(format_config(cfg)))


def test_gen_corpus_and_manifest(tmp_path):
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "results")
    assert main(["gen-corpus", "--config", cfg_path, "--out", out]) == EXIT_OK
    manifest = json.loads((tmp_path / "results" / "manifest.json").read_text())
    corpus = read_corpus(os.path.join(out, "corpus.txt"))
    assert manifest["n_retained"] == len(corpus)
    with open(os.path.join(out, "corpus.txt")) as fh:
        n_lines = sum(1 for line in fh if line.strip() and not line.startswith("#"))
    assert manifest["n_retained"] == n_lines
    assert 0.0 < manifest["retention_rate"] <= 1.0
    # rerunning without --overwrite fails; with it, bytes are identical
    assert main(["gen-corpus", "--config", cfg_path, "--out", out]) == EXIT_RUNTIME
    before = file_hashes(out, ["corpus.txt"])
    assert main(["gen-corpus", "--config", cfg_path, "--out", out, "--overwrite"]) == EXIT_OK
    assert file_hashes(out, ["corpus.txt"]) == before


def test_gen_corpus_noiseless_retention_full(tmp_path):
    text = SMALL_CONFIG.replace("epsilon_instructed = 0.05", "epsilon_instructed = 0.0")
    cfg_path = write_config(tmp_path, text)
    out = str(tmp_path / "res0")
    assert main(["gen-corpus", "--config", cfg_path, "--out", out]) == EXIT_OK
    manifest = json.loads(open(os.path.join(out, "manifest.json")).read())
    assert manifest["retention_rate"] == 1.0


def test_matrix_requires_corpus(tmp_path):
    cfg_path = write_config(tmp_path)
    assert main(["matrix", "--config", cfg_path, "--out", str(tmp_path / "empty")]) == EXIT_RUNTIME


def test_matrix_hash_mismatch_rejected(tmp_path):
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "results")
    assert main(["gen-corpus", "--config", cfg_path, "--out", out]) == EXIT_OK
    edited = write_config(tmp_path, SMALL_CONFIG.replace("learning_rate = 0.2", "learning_rate = 0.3"), "edited.cfg")
    assert main(["matrix", "--config", edited, "--out", out]) == EXIT_RUNTIME


def test_matrix_outputs_and_determinism(tmp_path):
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "results")
    assert main(["gen-corpus", "--config", cfg_path, "--out", out]) == EXIT_OK
    assert main(["matrix", "--config", cfg_path, "--out", out]) == EXIT_OK
    names = ["accuracy.csv", "exaccerr.csv", "trace_quality.csv", "summary.csv", "runs.csv"]
    first = file_hashes(out, names)
    with open(os.path.join(out, "accuracy.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert "epochs=1" in lines[0]
    assert lines[1] == "method,dataset,accuracy"
    assert {line.split(",")[0] for line in lines[2:]} == {"sft", "sigmoid_t1"}
    # rerun: byte-identical CSVs
    assert main(["matrix", "--config", cfg_path, "--out", out]) == EXIT_OK
    assert file_hashes(out, names) == first
    # summary carries one row per objective
    with open(os.path.join(out, "summary.csv")) as fh:
        rows = [line for line in fh.read().splitlines()[2:] if line]
    assert len(rows) == 2


def test_train_eval_subcommands(tmp_path):
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "results")
    assert main(["gen-corpus", "--config", cfg_path, "--out", out]) == EXIT_OK
    assert main(["train", "--config", cfg_path, "--out", out, "--objective", "sft", "--seed", "0"]) == EXIT_OK
    policy_path = os.path.join(out, "policy_sft_s0.txt")
    assert os.path.exists(policy_path)
    history_path = os.path.join(out, "history_sft_s0.csv")
    with open(history_path) as fh:
        lines = fh.read().splitlines()
    assert lines[1] == "step,lr,loss,grad_norm_pre,grad_norm_post,mean_weight"
    assert main(["eval", "--config", cfg_path, "--out", out, "--policy", policy_path]) == EXIT_OK
    assert os.path.exists(os.path.join(out, "eval_policy_sft_s0.csv"))


def test_drift_outputs(tmp_path):
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "results")
    assert main(["gen-corpus", "--config", cfg_path, "--out", out]) == EXIT_OK
    assert main(["drift", "--config", cfg_path, "--out", out]) == EXIT_OK
    with open(os.path.join(out, "drift.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[1] == "method,horizon,exaccerr"
    body = [line.split(",") for line in lines[2:]]
    assert {row[0] for row in body} == {"sft", "sigmoid_t1"}
    # one row per (method, horizon)
    assert len(body) == 2 * 3


def test_drift_runs_values_are_plain_floats(tmp_path):
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "results")
    assert main(["gen-corpus", "--config", cfg_path, "--out", out]) == EXIT_OK
    assert main(["drift", "--config", cfg_path, "--out", out]) == EXIT_OK
    with open(os.path.join(out, "drift_runs.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[1] == "method,seed,horizon,exaccerr"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 2 * 2 * 3
    for _, seed, horizon, value in rows:
        int(seed), int(horizon), float(value)  # a numpy repr such as np.float64(...) fails here


def test_drift_horizon_beyond_max_len_fails_before_training(tmp_path, capsys):
    text = SMALL_CONFIG.replace("max_len = 16", "max_len = 8").replace("horizons = 2,4,8", "horizons = 2,16")
    cfg_path = write_config(tmp_path, text)
    out = str(tmp_path / "results")
    assert main(["gen-corpus", "--config", cfg_path, "--out", out]) == EXIT_OK
    capsys.readouterr()
    assert main(["drift", "--config", cfg_path, "--out", out]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "16" in err and "max_len 8" in err
    assert not [f for f in os.listdir(out) if f.startswith(("history_", "policy_"))]


def test_report_merges_outputs(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "results")
    main(["gen-corpus", "--config", cfg_path, "--out", out])
    main(["matrix", "--config", cfg_path, "--out", out])
    assert main(["report", "--out", out]) == EXIT_OK
    assert os.path.exists(os.path.join(out, "report.txt"))
    captured = capsys.readouterr().out
    assert "summary.csv" in captured


def test_missing_config_is_config_error(tmp_path):
    assert main(["gen-corpus", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == EXIT_CONFIG


def test_bad_config_value_is_config_error(tmp_path):
    bad = write_config(tmp_path, SMALL_CONFIG.replace("modulus = 5", "modulus = 2"), "bad.cfg")
    assert main(["gen-corpus", "--config", bad, "--out", str(tmp_path / "x")]) == EXIT_CONFIG


def test_gkd_objective_through_config(tmp_path):
    text = SMALL_CONFIG.replace("seeds = 0,1", "seeds = 0").replace(
        "[objective.sigmoid_t1]\nbase = SFT\ntransform = sigmoid\ntau = 1.0\ntau_convention = divide",
        "[objective.gkd_ref]\nbase = GKD\ngkd_lambda = 0.5\ngkd_beta = 0.5",
    )
    cfg_path = write_config(tmp_path, text, "gkd.cfg")
    out = str(tmp_path / "results")
    assert main(["gen-corpus", "--config", cfg_path, "--out", out]) == EXIT_OK
    assert main(["matrix", "--config", cfg_path, "--out", out]) == EXIT_OK
    with open(os.path.join(out, "summary.csv")) as fh:
        rows = fh.read().splitlines()[2:]
    assert {row.split(",")[0] for row in rows if row} == {"sft", "gkd_ref"}


def test_matrix_records_aborts_and_continues(tmp_path, monkeypatch):
    import driftlab.harness as harness
    from driftlab.training import TrainAbortError

    real_train = harness.train

    def flaky_train(cfg, corpus, objective, init_policy, teacher=None, max_len=24):
        if objective.transform.kind == "sigmoid" and cfg.seed == 1:
            raise TrainAbortError(13, "forced abort for the harness test")
        return real_train(cfg, corpus, objective, init_policy, teacher=teacher, max_len=max_len)

    monkeypatch.setattr(harness, "train", flaky_train)
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "results")
    assert main(["gen-corpus", "--config", cfg_path, "--out", out]) == EXIT_OK
    assert main(["matrix", "--config", cfg_path, "--out", out]) == EXIT_OK
    with open(os.path.join(out, "runs.csv")) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[2:] if line]
    by_cell = {(r[0], r[1]): r for r in rows}
    assert by_cell[("sigmoid_t1", "1")][2] == "aborted"
    assert by_cell[("sigmoid_t1", "1")][3] == "13"
    assert by_cell[("sft", "1")][2] == "ok"
    # the aborted cell is excluded from the summary mean but the row remains
    with open(os.path.join(out, "summary.csv")) as fh:
        summary = {line.split(",")[0]: line.split(",") for line in fh.read().splitlines()[2:] if line}
    assert summary["sigmoid_t1"][1] == "1"
    assert summary["sft"][1] == "2"


def test_parallel_matrix_matches_serial(tmp_path):
    cfg_path = write_config(tmp_path)
    out1 = str(tmp_path / "serial")
    out2 = str(tmp_path / "parallel")
    for out, jobs in ((out1, "1"), (out2, "2")):
        assert main(["gen-corpus", "--config", cfg_path, "--out", out]) == EXIT_OK
        assert main(["matrix", "--config", cfg_path, "--out", out, "--jobs", jobs]) == EXIT_OK
    names = ["accuracy.csv", "exaccerr.csv", "trace_quality.csv", "summary.csv", "runs.csv"]
    assert file_hashes(out1, names) == file_hashes(out2, names)
