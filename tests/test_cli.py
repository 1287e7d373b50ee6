"""Config parsing, hashing, and CLI subcommand contracts."""

import csv
import hashlib
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from driftlab.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from driftlab.config import (
    ConfigError,
    CorpusSettings,
    EvalConfig,
    ExperimentConfig,
    TrainSettings,
    config_hash,
    default_config,
    format_config,
    load_config,
    parse_config,
)
from driftlab.harness import run_matrix
from driftlab.objectives import ObjectiveSpec, WeightTransform
from driftlab.policy import POLICY_FAMILIES, save_policy
from driftlab.task import TaskConfig, TeacherSpec, read_corpus
from driftlab.vocab import MUL, VALUE_BASE, Vocabulary

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


# objective sections that together set every objective key, every base and
# transform kind, the KL alias and mixed-case bases
EVERY_OBJECTIVE_KEY = """
[objective.a]
base = SFT
transform = sigmoid
tau = 2.5
tau_convention = multiply
[objective.b]
base = KL
transform = clip-exp
clip_c = 3.0
[objective.c]
base = reverse-KL
transform = raw-ratio
[objective.d]
base = Symmetric-KL
transform = relu
clip_c = 0.5
[objective.e]
base = GKD
transform = sequence-sigmoid
tau = 0.25
gkd_lambda = 0.25
gkd_beta = 0.75
[objective.f]
base = forward-kl
transform = constant-one
tau_convention = divide
[objective.g]
base = kl
gkd_lambda = 1
gkd_beta = 0
"""
EVERY_BASE = "".join(
    f"[objective.o{i}]\nbase = {base}\n"
    for i, base in enumerate(["sft", "forward-kl", "reverse-kl", "symmetric-kl", "gkd", "Kl", "Sft", "REVERSE-KL"])
)
EVERY_TRANSFORM = "".join(
    f"[objective.k{i}]\ntransform = {kind}\ntau = 3\nclip_c = 2\n"
    for i, kind in enumerate(["constant-one", "sigmoid", "raw-ratio", "clip-exp", "relu", "sequence-sigmoid"])
)


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


def test_config_hash_golden_values():
    # measured before the config format was derived from the dataclasses; every
    # corpus header, manifest and output CSV carries these bytes
    assert config_hash(default_config()) == "916c6d4323787939"
    assert config_hash(parse_config(SMALL_CONFIG)) == "b0dc1ac4b4d0fec0"
    assert config_hash(parse_config("[train]\nfamily = feedforward\n")) == "eae4a1ffdaa2d451"
    # measured before the objective sections were derived from ObjectiveSpec
    assert config_hash(parse_config(EVERY_OBJECTIVE_KEY)) == "87de03cade805ec5"
    assert config_hash(parse_config(EVERY_BASE)) == "78a8a82f84e08ec0"
    assert config_hash(parse_config(EVERY_TRANSFORM)) == "63f5c33165005236"


def test_config_hash_is_the_sha256_of_the_canonical_text(monkeypatch):
    # the builtin SHA-256 the config module takes gives hashlib's digest, on
    # the default, the small and both benchmark configs
    path = Path(__file__).parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    configs = [default_config(), parse_config(SMALL_CONFIG)]
    configs += [parse_config(workloads.config_text(w, 1)) for w in workloads.WORKLOADS.values()]
    assert len(configs) == 4
    for cfg in configs:
        assert config_hash(cfg) == hashlib.sha256(format_config(cfg).encode()).hexdigest()[:16]


def test_every_field_round_trips():
    cfg = ExperimentConfig(
        task=TaskConfig(modulus=11, chain_length=3, ops=(MUL,)),
        corpus=CorpusSettings(n_problems=7, samples_per_problem=2, max_len=20, seed=99),
        teacher=TeacherSpec(epsilon_instructed=0.01, epsilon_plain=0.2, instructed=False),
        train=TrainSettings(
            learning_rate=0.25, epochs=2, batch_size=4, warmup_fraction=0.1, clip_norm=2.5,
            optimizer="adam", adam_beta1=0.8, adam_beta2=0.99, adam_eps=1e-6, weight_decay=0.01,
            family="feedforward", order=3, embed_dim=5, hidden_dim=6, init_scale=0.3, seeds=(4, 2),
        ),
        eval=EvalConfig(horizons=(1, 3), eval_size=10, drift_problems=20, seed=3),
        objectives=(
            ("c", ObjectiveSpec("reverse-kl", WeightTransform("clip-exp", tau=2.0, clip=3.0, tau_convention="multiply"))),
            ("g", ObjectiveSpec("gkd", gkd_lambda=0.25, gkd_beta=0.75)),
        ),
    )
    assert parse_config(format_config(cfg)) == cfg


@pytest.mark.parametrize(
    "old, new",
    [
        ("learning_rate = 0.2", "learning_rate = -1"),
        ("optimizer = sgd", "optimizer = adamw"),
        ("epochs = 1", "epochs = 0"),
        ("clip_norm = 1.0", "clip_norm = 0"),
        ("warmup_fraction = 0.05", "warmup_fraction = 1.5"),
        ("order = 1", "order = 0"),
        ("modulus = 5", "modulus = five"),
        ("tau = 1.0", "tau = x"),
        ("instructed = true", "instructed = maybe"),
        ("tau = 1.0", "clip_c = x"),
        ("tau = 1.0", "gkd_lambda = 2"),
        pytest.param("base = SFT\ntransform = sigmoid", "base = foo\ntransform = sigmoid", id="base = foo"),
        ("transform = sigmoid", "transform = bogus"),
        ("tau_convention = divide", "tau_convention = sideways"),
        ("tau = 1.0", "temperature = 1.0"),
    ],
)
def test_invalid_values_rejected_at_parse(old, new):
    assert SMALL_CONFIG.count(old) == 1
    with pytest.raises(ConfigError) as err:
        parse_config(SMALL_CONFIG.replace(old, new))
    assert section_of(old) in str(err.value)


def section_of(line: str) -> str:
    """The [section] header of SMALL_CONFIG that ``line`` sits under."""
    return re.findall(r"^\[.*\]$", SMALL_CONFIG[: SMALL_CONFIG.index(line)], re.M)[-1]


@pytest.mark.parametrize(
    "old, new",
    [
        ("modulus = 5", "modulus = five"),
        ("learning_rate = 0.2", "learning_rate = -1"),
        ("optimizer = sgd", "optimizer = adamw"),
        ("seeds = 0,1", "seeds = 0,0"),
    ],
)
def test_invalid_value_exits_2_before_writing(tmp_path, capsys, old, new):
    cfg_path = write_config(tmp_path, SMALL_CONFIG.replace(old, new))
    out = tmp_path / "results"
    assert main(["gen-corpus", "--config", cfg_path, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert new.split(" = ")[0] in err and section_of(old) in err
    assert not (out / "corpus.txt").exists()


def test_train_section_reports_its_own_fields_before_the_optimizer_settings():
    # TrainSettings checks the student and seeds, then TrainConfig's settings
    text = SMALL_CONFIG.replace("family = tabular", "family = x").replace("learning_rate = 0.2", "learning_rate = -1")
    with pytest.raises(ConfigError, match=r"^\[train\] unknown student family 'x'$"):
        parse_config(text)


@pytest.mark.parametrize("kind", ("directory", "latin-1"))
def test_unreadable_config_exits_2_naming_the_file(tmp_path, capsys, kind):
    if kind == "directory":
        path = str(tmp_path)
    else:
        path = str(tmp_path / "latin1.cfg")
        Path(path).write_bytes(SMALL_CONFIG.replace("[eval]", "# caf\xe9\n[eval]").encode("latin-1"))
    out = tmp_path / "results"
    assert main(["gen-corpus", "--config", path, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: cannot read config {path}: " in err and "Traceback" not in err
    assert not out.exists()


def test_output_path_that_is_a_file_exits_3_naming_it(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "results"
    out.write_text("not a directory\n")
    for command in ("gen-corpus", "drift", "matrix", "ablate-weights"):
        assert main([command, "--config", cfg_path, "--out", str(out)]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert f"cannot use output directory {out}: " in err and "Traceback" not in err
    assert out.read_text() == "not a directory\n"


def test_a_directory_where_a_file_belongs_exits_3_naming_it(tmp_path, capsys):
    # a snapshot path, and the corpus a regeneration writes
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "results")
    assert main(["gen-corpus", "--config", cfg_path, "--out", out]) == EXIT_OK
    os.remove(os.path.join(out, "corpus.txt"))
    for path, argv in (
        (tmp_path, ["eval", "--config", cfg_path, "--out", out, "--policy", str(tmp_path)]),
        (os.path.join(out, "corpus.txt"), ["gen-corpus", "--config", cfg_path, "--out", out, "--overwrite"]),
    ):
        os.makedirs(path, exist_ok=True)
        capsys.readouterr()
        assert main(argv) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "runtime error: " in err and f"'{path}'" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "old, new",
    [
        ("corpus_seed = 77", "corpus_seed = -3"),
        ("eval_seed = 5", "eval_seed = -1"),
        ("seeds = 0,1", "seeds = 0,-2"),
    ],
)
def test_negative_seed_exits_2_at_parse_and_writes_nothing(tmp_path, capsys, old, new):
    # a seed becomes SeedSequence entropy, which takes no negative int: such a
    # run used to stop with exit 3 at its first stream, after writing files
    cfg_path = write_config(tmp_path, SMALL_CONFIG.replace(old, new))
    out = tmp_path / "results"
    for command in ("gen-corpus", "drift", "matrix"):
        assert main([command, "--config", cfg_path, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{section_of(old)} {new.split(' = ')[0]} = " in err and "non-negative" in err
    assert not out.exists()


def test_jobs_and_seed_flags_below_their_minimum_exit_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "results")
    assert main(["gen-corpus", "--config", cfg_path, "--out", out]) == EXIT_OK
    written = sorted(os.listdir(out))
    for command, *flags in (
        ["matrix", "--jobs", "0"],
        ["drift", "--jobs", "-5"],
        ["ablate-weights", "--jobs", "0"],
        ["matrix", "--jobs", "two"],
        ["train", "--seed", "-1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg_path, "--out", out, *flags])
        assert exc.value.code == EXIT_CONFIG
        assert f"argument {flags[0]}" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == written
    # a library caller gets an error before any cell runs
    with pytest.raises(ValueError, match="jobs must be >= 1, got 0"):
        run_matrix(load_config(cfg_path), out, jobs=0)
    assert sorted(os.listdir(out)) == written


@pytest.mark.parametrize("label", ["a,b", "../escape", "two words", ""])
def test_bad_objective_label_exits_2_before_writing(tmp_path, capsys, label):
    # a label is a CSV field and part of the policy and history file names
    cfg_path = write_config(tmp_path, SMALL_CONFIG.replace("[objective.sigmoid_t1]", f"[objective.{label}]"))
    out = tmp_path / "results"
    for command in ("gen-corpus", "matrix"):
        assert main([command, "--config", cfg_path, "--out", str(out)]) == EXIT_CONFIG
        assert f"[objective.{label}] the label must match" in capsys.readouterr().err
    assert not out.exists()


def test_label_rule_accepts_letters_digits_dash_underscore():
    cfg = parse_config(SMALL_CONFIG.replace("[objective.sigmoid_t1]", "[objective.Sigmoid-T1_2]"))
    assert [label for label, _ in cfg.objectives] == ["sft", "Sigmoid-T1_2"]
    with pytest.raises(ConfigError):
        ExperimentConfig(objectives=(("a.b", ObjectiveSpec()),))


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
    assert manifest["corpus_sha256"] == file_hashes(out, ["corpus.txt"])["corpus.txt"]
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
    assert lines[1] == "step,lr,loss,grad_norm_pre,grad_norm_post,mean_weight,weight_min,weight_max"
    assert main(["eval", "--config", cfg_path, "--out", out, "--policy", policy_path]) == EXIT_OK
    with open(os.path.join(out, "eval_policy_sft_s0.csv")) as fh:
        assert fh.read().splitlines()[2].startswith("policy_sft_s0,0.")
    # a base name with a comma is one quoted field
    shutil.copy(policy_path, os.path.join(out, "x,y.txt"))
    assert main(["eval", "--config", cfg_path, "--out", out, "--policy", os.path.join(out, "x,y.txt")]) == EXIT_OK
    with open(os.path.join(out, "eval_x,y.csv"), newline="") as fh:
        header, row = list(csv.reader(fh.read().splitlines()[1:]))
    assert len(row) == len(header) == 6 and row[0] == "x,y"
    # --overwrite belongs to gen-corpus and --jobs to the studies alone
    misplaced = [
        ["train", "--objective", "sft", "--overwrite"],
        ["train", "--objective", "sft", "--jobs", "2"],
        ["eval", "--policy", policy_path, "--overwrite"],
        ["eval", "--policy", policy_path, "--jobs", "2"],
        ["gen-corpus", "--jobs", "2"],
        ["matrix", "--overwrite"],
        ["drift", "--overwrite"],
        ["ablate-weights", "--overwrite"],
    ]
    for command, *flags in misplaced:
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg_path, "--out", out, *flags])
        assert exc.value.code == EXIT_CONFIG


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


# SHA-256 of every file that gen-corpus then drift write on SMALL_CONFIG: a
# change that moves one random draw, one token or one float digit fails here
GOLDEN_DRIFT_STUDY = {
    "corpus.txt": "a8f88a4f702eec425fc47c85dda2b6fd5f1fff767c60ca0744b5d8fbe902e2cb",
    "drift.csv": "f066d995b66fe188988e78146c5ae440ad1f4dadbc438715a6bf3b35e85bf20e",
    "drift_runs.csv": "93277bcbdcf0955c99b7f2d3d7bebae24eaed3d1bc08f3738c34dc6084d91dc2",
    "history_sft_s0.csv": "65b1c6747c78c588330bd10b9cdba3b257c46dadefd73e620de89a351ba39eeb",
    "history_sft_s1.csv": "b9c4c5f2d8339cb362179a65be2658bc798636682440d161c734d400ead30be1",
    "history_sigmoid_t1_s0.csv": "73179a8bc432c11542d302fa0f4c2b0d0dc73ba48d784b7d4b8380405483bfb0",
    "history_sigmoid_t1_s1.csv": "f242666a8865307afee918e2289ce908e6371b096d54835c5aeab253841cf85f",
    "manifest.json": "4986610caef8b7fe3c391906fbd1d4073b9ecdc01e7d4110025e2e8f996015b2",
    "policy_sft_s0.txt": "3bc4b4aa25863ae6ca06d441a814088ff633be4ef29de4679e1fe6fc31d2ad35",
    "policy_sft_s1.txt": "8557e21ad6dcce1758b3c2bcdd32a4c272ba99a2d68f67fdb6c41d382967ee99",
    "policy_sigmoid_t1_s0.txt": "32e86dd25bfeac46c754789581f262a12681a5e160230e38876209408e1011a1",
    "policy_sigmoid_t1_s1.txt": "1cecae576873538def98abd657a33726073f98032d8deb1289531200d443006e",
}


def test_drift_study_output_bytes_are_pinned(tmp_path):
    cfg_path = write_config(tmp_path)
    corpus = str(tmp_path / "corpus")
    assert main(["gen-corpus", "--config", cfg_path, "--out", corpus]) == EXIT_OK
    # a rerun, and the seeds split over two jobs, write the same bytes
    for run, jobs in (("first", "1"), ("rerun", "1"), ("parallel", "2")):
        out = str(tmp_path / run)
        shutil.copytree(corpus, out)
        assert main(["drift", "--config", cfg_path, "--out", out, "--jobs", jobs]) == EXIT_OK
        assert sorted(os.listdir(out)) == sorted(GOLDEN_DRIFT_STUDY)
        assert file_hashes(out, GOLDEN_DRIFT_STUDY) == GOLDEN_DRIFT_STUDY


GKD_CONFIG = SMALL_CONFIG.replace(
    "[objective.sigmoid_t1]\nbase = SFT\ntransform = sigmoid\ntau = 1.0\ntau_convention = divide",
    "[objective.gkd]\nbase = GKD\ngkd_lambda = 0.5\ngkd_beta = 0.5",
).replace("[objective.sft]\nbase = SFT\ntransform = constant-one\n\n", "")

# SHA-256 of every file that gen-corpus then drift write on GKD_CONFIG: pins
# the online baseline's source draws, its student rollouts and its JS steps
GOLDEN_GKD_DRIFT_STUDY = {
    "corpus.txt": "7597bb076e0513484df4e4427c639ff950a603482c5483985e0d249cea62aa8a",
    "drift.csv": "0bbad322e907b6a36a5ede8a26638b79e9e82346eb31b6763c23387681e47ef6",
    "drift_runs.csv": "4d0ef6f6cee1954aa7e635470cce91d9a8d81aca7a42f8824ca236771257d65f",
    "history_gkd_s0.csv": "afdbc6be9aea201f0beaf8de02a92b2326630d10aae8df6425775e595983f225",
    "history_gkd_s1.csv": "6ec40f4b0eec6b2c5478b29c1964a7757b3d6c6527bedd29ca9a8874ddc6475e",
    "manifest.json": "117d82a2ef5cd0f0fb91b41f421b121e245b3f3d13db93b1406f7097bd48871f",
    "policy_gkd_s0.txt": "0f7a88f91f6f84de7403de9f808e687e05c870195cd23936f283bbe8dd207b48",
    "policy_gkd_s1.txt": "015291db85eb3895ecfe0274692fe8a3171240b86e0bc22b1ea5de71fd2b6de5",
}


def test_gkd_drift_study_output_bytes_are_pinned(tmp_path):
    cfg_path = write_config(tmp_path, GKD_CONFIG, "gkd.cfg")
    corpus = str(tmp_path / "corpus")
    assert main(["gen-corpus", "--config", cfg_path, "--out", corpus]) == EXIT_OK
    # a rerun, and the cells split over two jobs, write the same bytes
    for run, jobs in (("first", "1"), ("rerun", "1"), ("parallel", "2")):
        out = str(tmp_path / run)
        shutil.copytree(corpus, out)
        assert main(["drift", "--config", cfg_path, "--out", out, "--jobs", jobs]) == EXIT_OK
        assert sorted(os.listdir(out)) == sorted(GOLDEN_GKD_DRIFT_STUDY)
        assert file_hashes(out, GOLDEN_GKD_DRIFT_STUDY) == GOLDEN_GKD_DRIFT_STUDY


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


def _damage(fields):
    """Record fields (question, trace, log-probs, flag) of one damaged corpus line."""
    q, t, lp, flag = fields
    return {
        "three_fields": [q, t, lp],
        "token_outside_vocabulary": [q, "99 " + t, "-0.5 " + lp, flag],
        "dropped_log_prob": [q, t, lp.rsplit(" ", 1)[0], flag],
        "non_finite_log_prob": [q, t, "nan " + lp.split(" ", 1)[1], flag],
        "positive_log_prob": [q, t, "0.25 " + lp.split(" ", 1)[1], flag],
        "bad_flag": [q, t, lp, "yes"],
        "empty_question": ["", t, lp, flag],
        "empty_trace": [q, "", "", flag],
    }


CORPUS_ERRORS = {
    "three_fields": "expected 4 tab-separated fields, found 3",
    "token_outside_vocabulary": "context token 99 outside vocabulary of size 10",
    "dropped_log_prob": "log-probabilities for a trace of",
    "non_finite_log_prob": "log-probabilities must be finite and at most 0",
    "positive_log_prob": "log-probabilities must be finite and at most 0",
    "bad_flag": "correct flag must be 0 or 1, found 'yes'",
    "empty_question": "empty question field",
    "empty_trace": "empty trace field",
}


@pytest.mark.parametrize("case", sorted(CORPUS_ERRORS))
def test_malformed_corpus_line_fails_before_training(tmp_path, capsys, case):
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "results")
    assert main(["gen-corpus", "--config", cfg_path, "--out", out]) == EXIT_OK
    path = os.path.join(out, "corpus.txt")
    with open(path) as fh:
        lines = fh.read().splitlines()
    # line 1 is the config-hash header; damage the third record, on line 4
    lines[3] = "\t".join(_damage(lines[3].split("\t"))[case])
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["matrix", "--config", cfg_path, "--out", out]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert f"{path} line 4: " in err and CORPUS_ERRORS[case] in err
    assert not [f for f in os.listdir(out) if f.startswith(("history_", "policy_"))]


@pytest.mark.parametrize("case", ["trace_token", "no_digest", "no_manifest"])
def test_tampered_corpus_fails_before_training(tmp_path, capsys, case):
    # an in-vocabulary trace token changed passes every line check: only the
    # corpus digest in the manifest catches it, and a corpus without one is refused
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "results")
    assert main(["gen-corpus", "--config", cfg_path, "--out", out]) == EXIT_OK
    corpus_path, manifest_path = os.path.join(out, "corpus.txt"), os.path.join(out, "manifest.json")
    if case == "trace_token":
        with open(corpus_path) as fh:
            lines = fh.read().splitlines()
        q, t, lp, flag = lines[1].split("\t")
        trace = [int(tok) for tok in t.split()]
        i = next(i for i, tok in enumerate(trace) if VALUE_BASE <= tok < VALUE_BASE + 5)
        trace[i] = VALUE_BASE + (trace[i] - VALUE_BASE + 1) % 5
        lines[1] = "\t".join([q, " ".join(map(str, trace)), lp, flag])
        with open(corpus_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    elif case == "no_digest":
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        del manifest["corpus_sha256"]
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
    else:
        os.remove(manifest_path)
    before = sorted(os.listdir(out))
    capsys.readouterr()
    assert main(["drift", "--config", cfg_path, "--out", out]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert corpus_path in err and manifest_path in err and "Traceback" not in err
    assert sorted(os.listdir(out)) == before


@pytest.mark.parametrize("case", ["snapshot", "corpus_line", "corpus_header"])
def test_a_file_that_is_not_utf8_exits_3_naming_it(tmp_path, capsys, case):
    # bytes that do not decode are a malformed file like any other: the error
    # names the file and its line, and nothing is trained or written
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "results")
    assert main(["gen-corpus", "--config", cfg_path, "--out", out]) == EXIT_OK
    path = Path(out, "corpus.txt")
    data = path.read_bytes()
    if case == "snapshot":
        path = tmp_path / "policy.txt"
        data, line, command = b"\xff\xfe", 1, ["eval", "--policy", str(path)]
    elif case == "corpus_line":  # a byte appended after the last record's newline
        data, line, command = data + b"\xff", data.count(b"\n") + 1, ["matrix"]
    else:  # the first hash digit of the "# config_hash=" line
        i = data.index(b"=") + 1
        data, line, command = data[:i] + b"\xff" + data[i + 1 :], 1, ["train", "--objective", "sft"]
    path.write_bytes(data)
    before = sorted(os.listdir(out))
    capsys.readouterr()
    assert main([command[0], "--config", cfg_path, "--out", out, *command[1:]]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert f"{path} line {line}: not UTF-8 text" in err and "Traceback" not in err
    assert sorted(os.listdir(out)) == before


@pytest.mark.parametrize("family", ["tabular", "feedforward"])
def test_train_reproduces_a_matrix_cell(tmp_path, capsys, family):
    # one cell trained alone, from copies of the corpus and manifest, writes
    # the snapshot and history bytes the matrix wrote for it, and evaluating
    # that snapshot gives the accuracy the matrix reported
    text = SMALL_CONFIG.replace("seeds = 0,1", "seeds = 0").replace("family = tabular", f"family = {family}")
    cfg_path = write_config(tmp_path, text)
    study, alone = tmp_path / "study", tmp_path / "alone"
    assert main(["gen-corpus", "--config", cfg_path, "--out", str(study)]) == EXIT_OK
    assert main(["matrix", "--config", cfg_path, "--out", str(study)]) == EXIT_OK
    alone.mkdir()
    for name in ("corpus.txt", "manifest.json"):
        shutil.copy(study / name, alone / name)
    rows = (line.split(",") for line in (study / "accuracy.csv").read_text().splitlines()[2:])
    accuracy = {label: value for label, _, value in rows}
    for label in ("sft", "sigmoid_t1"):
        assert main(["train", "--config", cfg_path, "--out", str(alone), "--objective", label, "--seed", "0"]) == EXIT_OK
        for name in (f"policy_{label}_s0.txt", f"history_{label}_s0.csv"):
            assert (alone / name).read_bytes() == (study / name).read_bytes()
        policy = str(alone / f"policy_{label}_s0.txt")
        assert main(["eval", "--config", cfg_path, "--out", str(alone), "--policy", policy]) == EXIT_OK
        row = (alone / f"eval_policy_{label}_s0.csv").read_text().splitlines()[2].split(",")
        assert row[1] == accuracy[label]


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

    def flaky_train(cfg, corpus, objective, init_policy, **kwargs):
        if objective.transform.kind == "sigmoid" and kwargs["seed"] == 1:
            raise TrainAbortError(13, "forced abort for the harness test")
        return real_train(cfg, corpus, objective, init_policy, **kwargs)

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


def test_drift_study_records_aborts_and_scores_the_other_cells(tmp_path, monkeypatch):
    # a cell that aborts leaves its seed's drift group: the other cells of
    # that seed are scored as in a study where nothing aborts
    import driftlab.harness as harness
    from driftlab.training import TrainAbortError

    cfg_path = write_config(tmp_path)
    corpus = str(tmp_path / "corpus")
    assert main(["gen-corpus", "--config", cfg_path, "--out", corpus]) == EXIT_OK
    full, flaky = str(tmp_path / "full"), str(tmp_path / "flaky")
    shutil.copytree(corpus, full)
    shutil.copytree(corpus, flaky)
    assert main(["drift", "--config", cfg_path, "--out", full]) == EXIT_OK
    real_train = harness.train

    def flaky_train(cfg, corpus, objective, init_policy, **kwargs):
        if objective.transform.kind == "sigmoid" and kwargs["seed"] == 1:
            raise TrainAbortError(13, "forced abort for the harness test")
        return real_train(cfg, corpus, objective, init_policy, **kwargs)

    monkeypatch.setattr(harness, "train", flaky_train)
    assert main(["drift", "--config", cfg_path, "--out", flaky]) == EXIT_OK
    with open(os.path.join(full, "drift_runs.csv")) as fh:
        want = [row for row in fh.read().splitlines()[2:] if not row.startswith("sigmoid_t1,1,")]
    with open(os.path.join(flaky, "drift_runs.csv")) as fh:
        got = fh.read().splitlines()[2:]
    assert got == want and len(got) == 3 * 3
    assert not os.path.exists(os.path.join(flaky, "policy_sigmoid_t1_s1.txt"))


def test_importing_the_harness_loads_no_process_pool():
    # a study with --jobs 1 never needs the pool, so its modules are imported
    # only when a study asks for more jobs
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = "\n".join([
        "import sys",
        f"sys.path.insert(0, {src!r})",
        "import driftlab.harness",
        "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))",
    ])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "family, command", [("tabular", "drift"), ("tabular", "matrix"), ("feedforward", "matrix"), ("feedforward", "drift")]
)
def test_no_study_imports_numpy_random_or_openssl(tmp_path, family, command):
    # every draw of a study, the online steps' and a feed-forward student's
    # initialization included, comes from driftlab.streams, and the config hash
    # takes CPython's builtin SHA-256: numpy.random and OpenSSL's _hashlib (which
    # numpy.random brings in through secrets and hmac) stay out of the process
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    text = SMALL_CONFIG.replace("family = tabular", f"family = {family}") + "[objective.gkd]\nbase = gkd\n"
    cfg_path, out = write_config(tmp_path, text), str(tmp_path / "results")
    code = "\n".join([
        "import sys",
        f"sys.path.insert(0, {src!r})",
        "from driftlab.cli import main",
        f"assert main(['gen-corpus', '--config', {cfg_path!r}, '--out', {out!r}]) == 0",
        f"assert main([{command!r}, '--config', {cfg_path!r}, '--out', {out!r}, '--jobs', '1']) == 0",
        "print(sorted({'numpy.random', '_hashlib', 'hmac', 'secrets'} & set(sys.modules)))",
    ])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("error", [IndexError, KeyError])
def test_a_failing_cell_is_named_and_exits_3(tmp_path, monkeypatch, capsys, error):
    # an error other than a training abort ends the study with the cell named,
    # and no traceback
    import driftlab.harness as harness

    real_train = harness.train

    def failing_train(cfg, corpus, objective, init_policy, **kwargs):
        if objective.transform.kind == "sigmoid" and kwargs["seed"] == 1:
            raise error("forced failure for the harness test")
        return real_train(cfg, corpus, objective, init_policy, **kwargs)

    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "results")
    assert main(["gen-corpus", "--config", cfg_path, "--out", out]) == EXIT_OK
    monkeypatch.setattr(harness, "train", failing_train)
    capsys.readouterr()
    assert main(["matrix", "--config", cfg_path, "--out", out, "--jobs", "1"]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert f"cell sigmoid_t1 at seed 1 failed: {error.__name__}" in err
    assert "forced failure for the harness test" in err and "Traceback" not in err
    assert not os.path.exists(os.path.join(out, "runs.csv"))


@pytest.mark.parametrize("command, scorer, written", [("drift", "prefix_drift_eval", "drift_runs.csv"),
                                                      ("matrix", "exaccerr", "runs.csv")])
def test_a_failing_scoring_group_is_named_and_exits_3(tmp_path, monkeypatch, capsys, command, scorer, written):
    # an error while scoring a seed's trained cells ends the study with the
    # seed named, and no traceback
    import driftlab.harness as harness

    def failing_scorer(*args, **kwargs):
        raise IndexError("forced failure for the harness test")

    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "results")
    assert main(["gen-corpus", "--config", cfg_path, "--out", out]) == EXIT_OK
    monkeypatch.setattr(harness, scorer, failing_scorer)
    capsys.readouterr()
    assert main([command, "--config", cfg_path, "--out", out, "--jobs", "1"]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "drift scoring at seed 0 failed: IndexError: forced failure for the harness test" in err
    assert "Traceback" not in err
    assert not os.path.exists(os.path.join(out, written))


def test_parallel_matrix_matches_serial(tmp_path):
    cfg_path = write_config(tmp_path)
    out1 = str(tmp_path / "serial")
    out2 = str(tmp_path / "parallel")
    for out, jobs in ((out1, "1"), (out2, "2")):
        assert main(["gen-corpus", "--config", cfg_path, "--out", out]) == EXIT_OK
        assert main(["matrix", "--config", cfg_path, "--out", out, "--jobs", jobs]) == EXIT_OK
    names = ["accuracy.csv", "exaccerr.csv", "trace_quality.csv", "summary.csv", "runs.csv"]
    assert file_hashes(out1, names) == file_hashes(out2, names)


def _snapshot(tmp_path, modulus=5, drop=None, edit=None, mutate=None, family="tabular"):
    path = str(tmp_path / "policy.txt")
    save_policy(POLICY_FAMILIES[family](Vocabulary(modulus), 1), path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    if drop is not None:
        lines = [line for line in lines if not line.startswith(f"{drop}=")]
    if edit is not None:
        key, val = edit
        lines = [f"{key}={val}" if line.startswith(f"{key}=") else line for line in lines]
    if mutate is not None:
        lines = mutate(lines)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"drop": "modulus"}, "no modulus= header line"),
        ({"drop": "n_params"}, "no n_params= header line"),
        ({"edit": ("order", "one")}, "order='one' is not an integer"),
        ({"family": "feedforward", "drop": "embed_dim"}, "no embed_dim= header line"),
        ({"family": "feedforward", "drop": "hidden_dim"}, "no hidden_dim= header line"),
        ({"edit": ("family", "cnn")}, "unknown policy family 'cnn'"),
    ],
)
def test_eval_broken_snapshot_header(tmp_path, capsys, kwargs, message):
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "results")
    policy_path = _snapshot(tmp_path, **kwargs)
    assert main(["eval", "--config", cfg_path, "--out", out, "--policy", policy_path]) == EXIT_RUNTIME
    assert message in capsys.readouterr().err


# a modulus-5 order-1 table: six header lines, then 100 parameters on lines 7-106
@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda lines: lines[:6] + ["nan", "inf"] + lines[8:], "line 7: parameter 'nan' is not a finite number"),
        (lambda lines: lines[:7] + ["inf"] + lines[8:], "line 8: parameter 'inf' is not a finite number"),
        (lambda lines: lines[:8] + ["0.5x"] + lines[9:], "line 9: parameter '0.5x' is not a finite number"),
        (lambda lines: lines + ["0.0", "1.0"], "line 107: unexpected line after the 100 parameters"),
    ],
    ids=["nan", "inf", "non_numeric", "trailing_lines"],
)
def test_eval_rejects_bad_snapshot_parameters(tmp_path, capsys, mutate, message):
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "results")
    policy_path = _snapshot(tmp_path, mutate=mutate)
    assert main(["eval", "--config", cfg_path, "--out", out, "--policy", policy_path]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert f"{policy_path} {message}" in err and "Traceback" not in err
    assert not os.path.exists(os.path.join(out, "eval_policy.csv"))


def test_eval_rejects_snapshot_of_other_modulus(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = str(tmp_path / "results")
    policy_path = _snapshot(tmp_path, modulus=7)
    assert main(["eval", "--config", cfg_path, "--out", out, "--policy", policy_path]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "modulus 7" in err and "modulus is 5" in err
    assert not os.path.exists(os.path.join(out, "eval_policy.csv"))
