"""Each output check of the benchmark passes on a real study's outputs and
fails on a deliberately corrupted copy of them.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
from run import study_inputs  # noqa: E402

TABULAR_DRIFT = """\
[task]
modulus = 5
chain_length = 2
n_problems = 300
samples_per_problem = 1
max_len = 12
corpus_seed = 3
[teacher]
epsilon_instructed = 0.05
epsilon_plain = 0.3
instructed = true
[train]
family = tabular
order = 1
learning_rate = 0.5
epochs = 2
batch_size = 16
seeds = 1
[objective.sft]
base = SFT
transform = constant-one
[objective.sigmoid]
base = SFT
transform = sigmoid
tau = 1.0
[eval]
horizons = 2,4,8
eval_size = 60
drift_problems = 40
eval_seed = 5
"""

FEEDFORWARD_MATRIX = """\
[task]
modulus = 5
chain_length = 2
n_problems = 300
samples_per_problem = 1
max_len = 12
corpus_seed = 4
[teacher]
epsilon_instructed = 0.05
epsilon_plain = 0.3
instructed = true
[train]
family = feedforward
order = 2
embed_dim = 4
hidden_dim = 8
learning_rate = 0.05
epochs = 4
batch_size = 16
seeds = 2
[objective.fkl]
base = forward-kl
transform = constant-one
[objective.skl_sigmoid]
base = symmetric-kl
transform = sigmoid
tau = 1.0
[eval]
horizons = 2,4,8
eval_size = 40
drift_problems = 30
eval_seed = 6
"""


def _study(tmp_path_factory, text, runner):
    from driftlab import config, harness

    root = tmp_path_factory.mktemp(runner)
    cfg_path = root / "config.cfg"
    cfg_path.write_text(text)
    out = str(root / "out")
    cfg = config.load_config(cfg_path)
    harness.run_gen_corpus(cfg, out)
    res = (harness.run_drift if runner == "drift" else harness.run_matrix)(cfg, out)
    cells = [{"label": c.label, "seed": c.seed, "status": c.status, "accuracy": c.accuracy} for c in res.cells]
    study = checks.Study.from_config(text, runner)
    return study, out, cells, study_inputs(str(cfg_path), study, out)


@pytest.fixture(scope="module")
def drift_study(tmp_path_factory):
    return _study(tmp_path_factory, TABULAR_DRIFT, "drift")


@pytest.fixture(scope="module")
def matrix_study(tmp_path_factory):
    return _study(tmp_path_factory, FEEDFORWARD_MATRIX, "matrix")


def _copy(study_tuple, tmp_path):
    study, out, cells, inputs = study_tuple
    dst = str(tmp_path / "out")
    shutil.copytree(out, dst)
    return study, dst, [dict(c) for c in cells], inputs


def _edit(path, fn):
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(fn(lines)) + "\n")


def _edit_field(path, line_no, col, fn, sep=","):
    def edit(lines):
        fields = lines[line_no].split(sep)
        fields[col] = fn(fields[col])
        lines[line_no] = sep.join(fields)
        return lines

    _edit(path, edit)


def _ops(fails):
    return {op for op, _ in fails}


@pytest.mark.parametrize("which", ["drift_study", "matrix_study"])
def test_real_outputs_pass_every_check(which, request):
    study, out, cells, inputs = request.getfixturevalue(which)
    assert checks.check_all(out, study, cells, inputs) == []


def test_teacher_automaton_matches_driftlab_teacher():
    from driftlab.harness import drift_problems
    from driftlab.config import parse_config
    from driftlab.task import teacher_policy

    cfg = parse_config(TABULAR_DRIFT)
    study = checks.Study.from_config(TABULAR_DRIFT, "drift")
    teacher = teacher_policy(cfg.teacher, cfg.task)
    rng = np.random.default_rng(0)
    for p in drift_problems(cfg)[:20]:
        own = checks.TeacherState(p.question.tokens, study)
        ctx = list(p.question.tokens)
        for tok in rng.integers(study.vocab_size, size=10):
            assert np.array_equal(own.dist(), teacher.next_token_distribution(ctx))
            own.advance(int(tok))
            ctx.append(int(tok))


# ---- corpus


def test_wrong_answer_in_trace_fails(drift_study, tmp_path):
    study, out, _, _ = _copy(drift_study, tmp_path)
    path = os.path.join(out, "corpus.txt")

    def flip_answer(lines):
        q, t, lp, flag = lines[1].split("\t")
        toks = t.split()
        i = toks.index(str(checks.ANSWER_MARK)) + 1
        toks[i] = str(checks.VALUE_BASE + (int(toks[i]) - checks.VALUE_BASE + 1) % study.modulus)
        lines[1] = "\t".join([q, " ".join(toks), lp, flag])
        return lines

    _edit(path, flip_answer)
    assert "corpus" in _ops(checks.check_corpus(out, study))


def test_trace_without_eos_fails(drift_study, tmp_path):
    study, out, _, _ = _copy(drift_study, tmp_path)
    _edit_field(os.path.join(out, "corpus.txt"), 1, 1, lambda t: t.rsplit(" ", 1)[0], sep="\t")
    assert "corpus" in _ops(checks.check_corpus(out, study))


def test_wrong_cached_logprob_fails(drift_study, tmp_path):
    study, out, _, _ = _copy(drift_study, tmp_path)
    _edit_field(os.path.join(out, "corpus.txt"), 1, 2, lambda lp: " ".join([repr(float(lp.split()[0]) * 1.001)] + lp.split()[1:]), sep="\t")
    assert "corpus" in _ops(checks.check_corpus(out, study))


def test_manifest_count_mismatch_fails(drift_study, tmp_path):
    study, out, _, _ = _copy(drift_study, tmp_path)
    path = os.path.join(out, "manifest.json")
    with open(path) as fh:
        manifest = json.load(fh)
    manifest["n_retained"] += 1
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    assert "corpus" in _ops(checks.check_corpus(out, study))


def test_retained_above_records_fails(drift_study, tmp_path):
    study, out, _, _ = _copy(drift_study, tmp_path)
    path = os.path.join(out, "manifest.json")
    with open(path) as fh:
        manifest = json.load(fh)
    manifest["n_records"] = manifest["n_retained"] - 1
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    assert "corpus" in _ops(checks.check_corpus(out, study))


# ---- training


def _history(out, label="sigmoid", seed=1):
    return os.path.join(out, f"history_{label}_s{seed}.csv")


def _check_history(study, out, label="sigmoid", seed=1):
    with open(os.path.join(out, "manifest.json")) as fh:
        n = json.load(fh)["n_retained"]
    return checks.check_history(out, study, label, seed, n)


def test_missing_step_fails(drift_study, tmp_path):
    study, out, _, _ = _copy(drift_study, tmp_path)
    _edit(_history(out), lambda lines: lines[:-1])
    assert _check_history(study, out) != []


def test_nonfinite_loss_fails(drift_study, tmp_path):
    study, out, _, _ = _copy(drift_study, tmp_path)
    _edit_field(_history(out), 5, 2, lambda v: "nan")
    assert _check_history(study, out) != []


def test_constant_one_weight_off_one_fails(drift_study, tmp_path):
    study, out, _, _ = _copy(drift_study, tmp_path)
    _edit_field(_history(out, "sft"), 4, 5, lambda v: "0.999")
    assert _check_history(study, out, "sft") != []


def test_sigmoid_weight_outside_unit_interval_fails(drift_study, tmp_path):
    study, out, _, _ = _copy(drift_study, tmp_path)
    _edit_field(_history(out), 4, 5, lambda v: "1.0")
    assert _check_history(study, out) != []


def test_loss_that_does_not_fall_fails(drift_study, tmp_path):
    study, out, _, _ = _copy(drift_study, tmp_path)

    def reverse_losses(lines):
        rows = [r.split(",") for r in lines[2:]]
        for r, loss in zip(rows, reversed([r[2] for r in rows])):
            r[2] = loss
        return lines[:2] + [",".join(r) for r in rows]

    _edit(_history(out, "sft"), reverse_losses)
    assert _check_history(study, out, "sft") != []


def _weights_fail(study_tuple, label, edit):
    study, out, cells, inputs = study_tuple
    program = [np.array(w) for w in inputs["weights"][checks.cell_name(label, study.seeds[0])]]
    edit(program)
    return checks.check_token_weights(out, study, label, study.seeds[0], program)


@pytest.mark.parametrize("which,label", [("drift_study", "sigmoid"), ("matrix_study", "skl_sigmoid")])
def test_token_weight_off_by_a_millionth_fails(which, label, request):
    def nudge(program):
        program[3][1] *= 1 + 1e-6

    assert _weights_fail(request.getfixturevalue(which), label, nudge) != []


def test_sigmoid_token_weight_of_one_fails(drift_study):
    def saturate(program):
        program[0][2] = 1.0

    assert _weights_fail(drift_study, "sigmoid", saturate) != []


def test_constant_one_token_weight_off_one_fails(drift_study):
    def dent(program):
        program[0][0] = 1.0 - 1e-12

    assert _weights_fail(drift_study, "sft", dent) != []


def test_missing_token_weights_fail(drift_study, tmp_path):
    study, out, cells, inputs = _copy(drift_study, tmp_path)
    os.remove(os.path.join(out, "policy_sigmoid_s1.txt"))
    fails = checks.check_all(out, study, cells, study_inputs(os.path.join(os.path.dirname(drift_study[1]), "config.cfg"), study, out))
    assert [msg for op, msg in fails if op == "sigmoid_s1" and msg.startswith("no token weights")]


def test_aborted_cell_fails(drift_study, tmp_path):
    study, out, cells, inputs = _copy(drift_study, tmp_path)
    cells[0]["status"] = "aborted"
    fails = checks.check_all(out, study, cells, inputs)
    assert checks.cell_name(cells[0]["label"], cells[0]["seed"]) in _ops(fails)


# ---- accuracy


def test_reported_accuracy_off_by_two_problems_fails(drift_study, tmp_path):
    study, out, cells, inputs = _copy(drift_study, tmp_path)
    c = cells[0]
    reported = c["accuracy"] + 2 / len(inputs["eval"]) * (1 if c["accuracy"] < 0.5 else -1)
    assert checks.check_accuracy(out, study, c["label"], c["seed"], inputs["eval"], reported) != []


def test_accuracy_within_one_problem_passes(drift_study, tmp_path):
    study, out, cells, inputs = _copy(drift_study, tmp_path)
    c = cells[0]
    reported = c["accuracy"] + 1 / len(inputs["eval"]) * (1 if c["accuracy"] < 0.5 else -1)
    assert checks.check_accuracy(out, study, c["label"], c["seed"], inputs["eval"], reported) == []


@pytest.mark.parametrize("which", ["drift_study", "matrix_study"])
def test_corrupted_snapshot_fails(which, request, tmp_path):
    study, out, cells, inputs = _copy(request.getfixturevalue(which), tmp_path)
    c = max(cells, key=lambda c: c["accuracy"])
    assert c["accuracy"] * len(inputs["eval"]) > 2
    path = os.path.join(out, f"policy_{c['label']}_s{c['seed']}.txt")

    def scramble(lines):
        n = next(i for i, line in enumerate(lines) if line.startswith("n_params=")) + 1
        rng = np.random.default_rng(1)
        return lines[:n] + [repr(float(v)) for v in rng.standard_normal(len(lines) - n) * 5.0]

    _edit(path, scramble)
    assert checks.check_accuracy(out, study, c["label"], c["seed"], inputs["eval"], c["accuracy"]) != []


# ---- drift


def _drift_fails(study_tuple):
    study, out, cells, inputs = study_tuple
    return checks.check_all(out, study, cells, inputs)


def test_drift_value_off_by_a_millionth_fails(drift_study, tmp_path):
    s = _copy(drift_study, tmp_path)
    study, out = s[0], s[1]
    last = sorted(study.objectives)[-1]

    def nudge(lines):
        for i, line in enumerate(lines):
            if line.startswith(f"{last},"):
                fields = line.split(",")
                fields[3] = repr(checks.csv_float(fields[3]) * (1 + 1e-6))
                lines[i] = ",".join(fields)
                break
        return lines

    _edit(os.path.join(out, "drift_runs.csv"), nudge)
    assert checks.cell_name(last, study.seeds[0]) in _ops(_drift_fails(s))


def test_exaccerr_value_off_fails(matrix_study, tmp_path):
    s = _copy(matrix_study, tmp_path)
    study, out = s[0], s[1]
    last = sorted(study.objectives)[-1]

    def nudge(lines):
        for i, line in enumerate(lines):
            if line.startswith(f"{last},"):
                label, h, v = line.split(",")
                lines[i] = f"{label},{h},{float(v) * (1 + 1e-6) + 1e-9!r}"
                break
        return lines

    _edit(os.path.join(out, "exaccerr.csv"), nudge)
    assert checks.cell_name(last, study.seeds[0]) in _ops(_drift_fails(s))


def test_missing_curve_row_fails(drift_study, tmp_path):
    s = _copy(drift_study, tmp_path)
    _edit(os.path.join(s[1], "drift.csv"), lambda lines: lines[:-1])
    assert "study" in _ops(_drift_fails(s))


def test_nonfinite_curve_value_fails(drift_study, tmp_path):
    s = _copy(drift_study, tmp_path)
    _edit_field(os.path.join(s[1], "drift_runs.csv"), 2, 3, lambda v: "nan")
    assert _drift_fails(s) != []


# ---- digest and failure counting


def test_digest_covers_study_outputs_only(drift_study, tmp_path):
    study, out, _, _ = _copy(drift_study, tmp_path)
    before = checks.digest(out)
    _edit(os.path.join(out, "corpus.txt"), lambda lines: lines[:-1])
    with open(os.path.join(out, "trace.json"), "w") as fh:
        fh.write("{}")
    assert checks.digest(out) == before
    _edit(os.path.join(out, "drift.csv"), lambda lines: lines + ["extra"])
    assert checks.digest(out) != before


def test_corpus_digest_covers_corpus_and_manifest(drift_study, tmp_path):
    study, out, _, _ = _copy(drift_study, tmp_path)
    before = checks.corpus_digest(out)
    _edit(os.path.join(out, "drift.csv"), lambda lines: lines + ["extra"])
    assert checks.corpus_digest(out) == before
    _edit(os.path.join(out, "manifest.json"), lambda lines: lines + [""])
    assert checks.corpus_digest(out) != before
    after_manifest = checks.corpus_digest(out)
    _edit(os.path.join(out, "corpus.txt"), lambda lines: lines[:-1])
    assert checks.corpus_digest(out) != after_manifest


def test_failed_cells_counts_named_cells():
    assert checks.failed_cells([], 4) == 0
    assert checks.failed_cells([("corpus", "a"), ("corpus", "b")], 4) == 0
    assert checks.failed_cells([("sft_s1", "a"), ("sft_s1", "b"), ("x_s1", "c")], 4) == 2
    assert checks.failed_cells([("study", "a"), ("corpus", "b")], 4) == 4
    assert math.isclose(checks.csv_float("np.float64(-1.5)"), -1.5)
