"""Output checks of the benchmark's own, made after the timed region.

Nothing here calls driftlab. The checks read the files a study wrote and
compare them with the benchmark's own computations: gold answers from the
question tokens, the teacher automaton, the student forward from a policy
snapshot, the correction weights, greedy decoding and the drift curve.
Inputs that are not outputs (the evaluation questions, the rollout seed, the
untrained base student) and the program's token weights of each trained
student are passed in by the caller.

Each check returns a list of failures as ``(operation, message)``, where the
operation is ``"corpus"`` or a cell name ``<label>_s<seed>``.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

# token indices fixed by driftlab's vocabulary
BOS, EOS, ANSWER_MARK, ADD, MUL, VALUE_BASE = 0, 1, 2, 3, 4, 5
KL_FLOOR = 1e-9
DRIFT_RTOL = 1e-9
LOGP_ATOL = 1e-12
WEIGHT_RTOL = 1e-9
CORPUS_FILES = ("corpus.txt", "manifest.json")
STUDY_INPUTS = CORPUS_FILES + ("trace.json",)


@dataclass(frozen=True)
class Study:
    """The parts of a workload config that the checks use."""

    modulus: int
    chain_length: int
    max_len: int
    n_problems: int
    samples_per_problem: int
    epsilon: float
    epochs: int
    batch_size: int
    seeds: tuple[int, ...]
    objectives: dict  # label -> (base, transform, factor on the log-gap inside the sigmoid)
    horizons: tuple[int, ...]
    runner: str

    @property
    def vocab_size(self) -> int:
        return self.modulus + VALUE_BASE

    @property
    def cells(self) -> list[str]:
        return [cell_name(label, s) for label in sorted(self.objectives) for s in self.seeds]

    @classmethod
    def from_config(cls, text: str, runner: str) -> "Study":
        cp = configparser.ConfigParser()
        cp.read_string(text)
        task, teacher, train, ev = cp["task"], cp["teacher"], cp["train"], cp["eval"]
        instructed = teacher.getboolean("instructed")
        objectives = {}
        for section in cp.sections():
            if not section.startswith("objective."):
                continue
            body = cp[section]
            transform = body.get("transform", "constant-one")
            if transform not in ("constant-one", "sigmoid"):
                raise ValueError(f"the checks know no {transform} weights")
            tau = body.getfloat("tau", 1.0)
            factor = tau if body.get("tau_convention", "divide") == "multiply" else 1.0 / tau
            objectives[section.split(".", 1)[1]] = (body["base"].lower(), transform, factor)
        return cls(
            modulus=task.getint("modulus"),
            chain_length=task.getint("chain_length"),
            max_len=task.getint("max_len"),
            n_problems=task.getint("n_problems"),
            samples_per_problem=task.getint("samples_per_problem"),
            epsilon=teacher.getfloat("epsilon_instructed" if instructed else "epsilon_plain"),
            epochs=train.getint("epochs"),
            batch_size=train.getint("batch_size"),
            seeds=tuple(int(s) for s in train["seeds"].split(",")),
            objectives=objectives,
            horizons=tuple(int(h) for h in ev["horizons"].split(",")),
            runner=runner,
        )


def cell_name(label: str, seed: int) -> str:
    return f"{label}_s{seed}"


# ---------------------------------------------------------------- task side


def gold_answer(question, modulus: int) -> int:
    """Answer token of a question ``BOS v0 op1 a1 ... opL aL``."""
    value = question[1] - VALUE_BASE
    for op, a in zip(question[2::2], question[3::2]):
        value = (value + a - VALUE_BASE) % modulus if op == ADD else (value * (a - VALUE_BASE)) % modulus
    return VALUE_BASE + value


def well_formed(question, study: Study) -> bool:
    m = study.modulus
    is_value = lambda t: VALUE_BASE <= t < VALUE_BASE + m  # noqa: E731
    return (
        len(question) == 2 + 2 * study.chain_length
        and question[0] == BOS
        and is_value(question[1])
        and all(op in (ADD, MUL) for op in question[2::2])
        and all(is_value(a) for a in question[3::2])
    )


class TeacherState:
    """The analytic teacher as an automaton advanced one token at a time.

    It puts 1 - eps on the correct continuation of the tokens emitted so far
    and eps / (V - 1) on each other token. A stray value token becomes the
    running value; a prefix with no correct continuation is a sink with all
    mass on EOS.
    """

    def __init__(self, question, study: Study):
        self.m, self.L = study.modulus, study.chain_length
        self.ops = list(question[2::2])
        self.operands = [a - VALUE_BASE for a in question[3::2]]
        self.running = question[1] - VALUE_BASE
        self.steps = 0
        self.phase = "steps" if well_formed(question, study) else "sink"
        V, eps = study.vocab_size, study.epsilon
        self._off = np.full(V, eps / (V - 1))
        self._on = 1.0 - eps
        self._sink = np.zeros(V)
        self._sink[EOS] = 1.0

    def expected(self):
        if self.phase == "sink":
            return None
        if self.phase == "steps":
            if self.steps < self.L:
                v, a = self.running, self.operands[self.steps]
                return VALUE_BASE + ((v + a) % self.m if self.ops[self.steps] == ADD else (v * a) % self.m)
            return ANSWER_MARK
        if self.phase == "answer":
            return VALUE_BASE + self.running
        return EOS

    def dist(self) -> np.ndarray:
        target = self.expected()
        if target is None:
            return self._sink
        d = self._off.copy()
        d[target] = self._on
        return d

    def advance(self, tok: int) -> None:
        is_value = VALUE_BASE <= tok < VALUE_BASE + self.m
        if tok == EOS or self.phase == "sink":
            self.phase = "sink"
        elif self.phase == "steps":
            if is_value:
                self.running = tok - VALUE_BASE
                self.steps = min(self.steps + 1, self.L)
            elif tok == ANSWER_MARK:
                self.phase = "answer"
            else:
                self.phase = "sink"
        elif self.phase == "answer":
            if is_value:
                self.phase = "post"
            elif tok != ANSWER_MARK:
                self.phase = "sink"


def read_corpus_file(path):
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            q, t, lp, flag = line.split("\t")
            records.append(([int(v) for v in q.split()], [int(v) for v in t.split()], [float(v) for v in lp.split()], flag))
    return records


def check_corpus(out_dir, study: Study) -> list:
    fails = []
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    records = read_corpus_file(os.path.join(out_dir, "corpus.txt"))
    if manifest["n_records"] != study.n_problems * study.samples_per_problem:
        fails.append(f"manifest n_records {manifest['n_records']} != problems x samples")
    if not 0 < manifest["n_retained"] <= manifest["n_records"]:
        fails.append(f"manifest n_retained {manifest['n_retained']} outside (0, n_records]")
    if len(records) != manifest["n_retained"]:
        fails.append(f"corpus has {len(records)} records, manifest says {manifest['n_retained']}")
    V, eps = study.vocab_size, study.epsilon
    log_on, log_off = math.log(1.0 - eps), math.log(eps / (V - 1))
    for n, (q, trace, logps, flag) in enumerate(records):
        where = f"record {n}"
        if not well_formed(q, study):
            fails.append(f"{where}: malformed question {q}")
            continue
        gold = gold_answer(q, study.modulus)
        if not trace or trace[-1] != EOS or EOS in trace[:-1]:
            fails.append(f"{where}: trace does not end in its only EOS")
        if ANSWER_MARK not in trace or trace.index(ANSWER_MARK) + 1 >= len(trace) or trace[trace.index(ANSWER_MARK) + 1] != gold:
            fails.append(f"{where}: trace does not carry the gold answer {gold}")
        if flag != "1":
            fails.append(f"{where}: retained record not flagged correct")
        if len(logps) != len(trace):
            fails.append(f"{where}: {len(logps)} log-probs for {len(trace)} tokens")
            continue
        teacher = TeacherState(q, study)
        for pos, (tok, lp) in enumerate(zip(trace, logps)):
            want = log_on if tok == teacher.expected() else log_off
            if abs(lp - want) > LOGP_ATOL:
                fails.append(f"{where} position {pos}: cached log-prob {lp!r}, teacher gives {want!r}")
                break
            teacher.advance(tok)
    return [("corpus", f) for f in fails]


# ---------------------------------------------------------------- training


def read_history(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    epochs = int(lines[0].split("epochs=")[1])
    rows = [[float(v) for v in line.split(",")] for line in lines[2:] if line]
    return epochs, rows


def check_history(out_dir, study: Study, label: str, seed: int, n_records: int) -> list:
    cell = cell_name(label, seed)
    path = os.path.join(out_dir, f"history_{label}_s{seed}.csv")
    if not os.path.exists(path):
        return [(cell, "no history written")]
    epochs, rows = read_history(path)
    fails = []
    expected = study.epochs * math.ceil(n_records / study.batch_size)
    if epochs != study.epochs or len(rows) != expected:
        fails.append(f"history has {len(rows)} steps over {epochs} epochs, expected {expected} over {study.epochs}")
    if not rows:
        return [(cell, f) for f in fails]
    losses = [r[2] for r in rows]
    weights = [r[5] for r in rows]
    if not all(math.isfinite(v) for v in losses):
        fails.append("non-finite loss in history")
    base, transform, _ = study.objectives[label]
    if transform == "constant-one" or base == "gkd":
        if any(w != 1.0 for w in weights):
            fails.append("constant-one weights differ from 1")
    elif transform == "sigmoid":
        if not all(0.0 < w < 1.0 for w in weights):
            fails.append("sigmoid weights outside (0, 1)")
    if base != "gkd" and all(w > 0.0 for w in weights):
        # A correction weight grows as the student gains on the teacher's tokens, so a
        # weighted loss can rise while training works. Dividing by the step's mean
        # weight compares the weight-averaged per-token loss instead; for
        # constant-one weights this is the loss itself.
        normalised = [loss / w for loss, w in zip(losses, weights)]
        tenth = max(1, len(rows) // 10)
        first, last = sum(normalised[:tenth]) / tenth, sum(normalised[-tenth:]) / tenth
        if not last < first:
            fails.append(f"weight-normalised loss of the last tenth {last!r} not below the first tenth {first!r}")
    return [(cell, f) for f in fails]


# ---------------------------------------------------------------- policy side


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    return shifted - np.log(np.exp(shifted).sum())


def softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max())
    return e / e.sum()


class Student:
    """Forward pass of a saved student: an order-k logit table or a tanh MLP."""

    def __init__(self, family: str, modulus: int, order: int, params: np.ndarray, embed_dim=0, hidden_dim=0):
        self.family, self.order, self.params = family, order, params
        self.V = modulus + VALUE_BASE
        if family == "feedforward":
            V, d, H = self.V, embed_dim, hidden_dim
            sizes = [V * d, H * order * d, H, V * H, V]
            if sum(sizes) != params.size:
                raise ValueError(f"feedforward snapshot has {params.size} params, layout needs {sum(sizes)}")
            cuts = np.cumsum(sizes)[:-1]
            e, w1, b1, w2, b2 = np.split(params, cuts)
            self.E, self.W1, self.b1, self.W2, self.b2 = e.reshape(V, d), w1.reshape(H, order * d), b1, w2.reshape(V, H), b2
        elif params.size != self.V ** (order + 1):
            raise ValueError(f"tabular snapshot has {params.size} params, table needs {self.V ** (order + 1)}")

    @classmethod
    def load(cls, path) -> "Student":
        with open(path) as fh:
            lines = fh.read().splitlines()
        header = {}
        i = 1
        while "=" in lines[i]:
            key, val = lines[i].split("=", 1)
            header[key] = val
            i += 1
        params = np.array([float(v) for v in lines[i:]], dtype=np.float64)
        if params.size != int(header["n_params"]):
            raise ValueError(f"snapshot {path} is truncated")
        return cls(
            header["family"],
            int(header["modulus"]),
            int(header["order"]),
            params,
            int(header.get("embed_dim", 0)),
            int(header.get("hidden_dim", 0)),
        )

    def logits(self, ctx) -> np.ndarray:
        window = ctx[-self.order :]
        window = [BOS] * (self.order - len(window)) + list(window)
        if self.family == "feedforward":
            h = np.tanh(self.W1 @ self.E[window].reshape(-1) + self.b1)
            return self.W2 @ h + self.b2
        row = 0
        for t in window:
            row = row * self.V + t
        return self.params[row * self.V : (row + 1) * self.V]


def greedy(student: Student, question, max_len: int) -> list[int]:
    ctx, out = list(question), []
    for _ in range(max_len):
        tok = int(np.argmax(student.logits(ctx)))
        out.append(tok)
        ctx.append(tok)
        if tok == EOS:
            break
    return out


def own_accuracy(student: Student, questions, study: Study) -> float:
    hits = 0
    for q in questions:
        out = greedy(student, q, study.max_len)
        if ANSWER_MARK in out:
            i = out.index(ANSWER_MARK)
            hits += i + 1 < len(out) and out[i + 1] == gold_answer(q, study.modulus)
    return hits / len(questions)


def check_accuracy(out_dir, study: Study, label: str, seed: int, questions, reported: float) -> list:
    cell = cell_name(label, seed)
    path = os.path.join(out_dir, f"policy_{label}_s{seed}.txt")
    if not os.path.exists(path):
        return [(cell, "no policy snapshot written")]
    mine = own_accuracy(Student.load(path), questions, study)
    # argmax over logits and over probabilities may break a near-tie differently
    if abs(mine - reported) * len(questions) > 1.0 + 1e-9:
        return [(cell, f"accuracy {reported!r} but the snapshot decodes to {mine!r}")]
    return []


def own_token_weights(student: Student, record, study: Study, label: str) -> np.ndarray:
    """Correction weight of each trace token under ``student``: 1, or sigmoid(factor * log-gap)."""
    q, trace, teacher_logps, _ = record
    base, transform, factor = study.objectives[label]
    if transform == "constant-one" or base == "gkd":
        return np.ones(len(trace))
    ctx, out = list(q), []
    for tok, lp_t in zip(trace, teacher_logps):
        x = factor * (float(log_softmax(student.logits(ctx))[tok]) - lp_t)
        out.append(1.0 / (1.0 + math.exp(-x)) if x >= 0 else math.exp(x) / (1.0 + math.exp(x)))
        ctx.append(tok)
    return np.array(out)


def check_token_weights(out_dir, study: Study, label: str, seed: int, program) -> list:
    """The program's per-token weights of the trained student on the first corpus records.

    ``program`` holds one weight array per record, or the reason the program
    gave none. Constant-one weights must be
    exactly 1, sigmoid weights strictly inside (0, 1), and both must match the
    benchmark's own weights of the saved snapshot.
    """
    cell = cell_name(label, seed)
    if isinstance(program, str):
        return [(cell, program)]
    student = Student.load(os.path.join(out_dir, f"policy_{label}_s{seed}.txt"))
    records = read_corpus_file(os.path.join(out_dir, "corpus.txt"))[: len(program)]
    constant = study.objectives[label][1] == "constant-one" or study.objectives[label][0] == "gkd"
    for n, (record, theirs) in enumerate(zip(records, program)):
        theirs = np.asarray(theirs, dtype=np.float64)
        mine = own_token_weights(student, record, study, label)
        if theirs.shape != mine.shape:
            return [(cell, f"record {n}: {theirs.size} weights for {mine.size} tokens")]
        if constant and not np.all(theirs == 1.0):
            return [(cell, f"record {n}: constant-one weights {theirs.tolist()} differ from 1")]
        if not constant and not np.all((theirs > 0.0) & (theirs < 1.0)):
            return [(cell, f"record {n}: sigmoid weights {theirs.tolist()} outside (0, 1)")]
        if not np.allclose(theirs, mine, rtol=WEIGHT_RTOL, atol=0.0):
            return [(cell, f"record {n}: weights {theirs.tolist()}, the snapshot gives {mine.tolist()}")]
    return []


# ---------------------------------------------------------------- drift


def sample(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw, the same one driftlab makes, so streams stay paired."""
    u = rng.random()
    return min(int(np.searchsorted(np.cumsum(probs), u, side="right")), len(probs) - 1)


def _rollout(next_probs, question, rng, max_len):
    ctx, out = list(question), []
    for _ in range(max_len):
        tok = sample(next_probs(ctx), rng)
        out.append(tok)
        ctx.append(tok)
        if tok == EOS:
            break
    return out


def _teacher_rollout(question, study: Study, rng):
    teacher, out = TeacherState(question, study), []
    for _ in range(study.max_len):
        tok = sample(teacher.dist(), rng)
        out.append(tok)
        teacher.advance(tok)
        if tok == EOS:
            break
    return out


def _cumulative_kl(question, rollout, student: Student, study: Study) -> np.ndarray:
    teacher, ctx, divs = TeacherState(question, study), list(question), []
    for tok in rollout:
        p = teacher.dist()
        mask = p > 0.0
        divs.append(float(np.sum(p[mask] * (np.log(p[mask]) - log_softmax(student.logits(ctx))[mask]))))
        teacher.advance(tok)
        ctx.append(tok)
    sums = np.concatenate([[0.0], np.cumsum(divs)])
    return np.array([sums[min(h, len(divs))] for h in study.horizons])


def own_drift_curve(study: Study, trained: Student, prefix_source: Student, questions, rollout_seed: int) -> np.ndarray:
    """The drift curve over the full drift set, from the benchmark's own parts.

    The drift runner draws generated prefixes from ``prefix_source`` (the
    untrained base student) up to the longest horizon; the matrix runner draws
    them from the trained student itself up to ``max_len``.
    """
    H = len(study.horizons)
    acc, counts = np.zeros(H), np.zeros(H, dtype=np.int64)
    source = prefix_source if study.runner == "drift" else trained
    gen_len = max(study.horizons) if study.runner == "drift" else study.max_len
    for idx, q in enumerate(questions):
        rng_t = np.random.Generator(np.random.PCG64(np.random.SeedSequence([rollout_seed, idx, 0])))
        rng_s = np.random.Generator(np.random.PCG64(np.random.SeedSequence([rollout_seed, idx, 1])))
        ref = _cumulative_kl(q, _teacher_rollout(q, study, rng_t), trained, study)
        gen = _cumulative_kl(q, _rollout(lambda c: softmax(source.logits(c)), q, rng_s, gen_len), trained, study)
        keep = ref >= KL_FLOOR
        acc[keep] += 100.0 * (gen[keep] - ref[keep]) / ref[keep]
        counts[keep] += 1
    return np.where(counts > 0, acc / np.maximum(counts, 1), 0.0)


def csv_float(field: str) -> float:
    """A float field; drift_runs.csv writes per-seed values as ``np.float64(<repr>)``."""
    if field.startswith("np.float64(") and field.endswith(")"):
        field = field[len("np.float64(") : -1]
    return float(field)


def read_curves(out_dir, study: Study) -> tuple[dict, list]:
    """Per-cell curves {cell: {horizon: value}} from the study's CSVs, and structural failures."""
    fails = []
    if study.runner == "drift":
        path, per_seed = os.path.join(out_dir, "drift_runs.csv"), True
    else:
        path, per_seed = os.path.join(out_dir, "exaccerr.csv"), False
    summary = "drift.csv" if study.runner == "drift" else "exaccerr.csv"
    with open(os.path.join(out_dir, summary)) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[2:] if line]
    want = {(label, h) for label in study.objectives for h in study.horizons}
    got = [(r[0], int(r[1])) for r in rows]
    if sorted(got) != sorted(want):
        fails.append(("study", f"{summary} rows {sorted(got)} are not one per (objective, horizon)"))
    for r in rows:
        if not math.isfinite(csv_float(r[-1])):
            fails.append((r[0], f"{summary}: non-finite value at horizon {r[1]}"))
    curves: dict = {}
    with open(path) as fh:
        for line in fh.read().splitlines()[2:]:
            if not line:
                continue
            r = line.split(",")
            if per_seed:
                label, seed, h, v = r[0], int(r[1]), int(r[2]), csv_float(r[3])
                cells = [cell_name(label, seed)]
            else:
                label, h, v = r[0], int(r[1]), csv_float(r[2])
                cells = [cell_name(label, s) for s in study.seeds]
            for cell in cells:
                curves.setdefault(cell, {})[h] = v
                if not math.isfinite(v):
                    fails.append((cell, f"non-finite drift value at horizon {h}"))
    for cell in study.cells:
        if sorted(curves.get(cell, {})) != sorted(study.horizons):
            fails.append((cell, f"drift curve horizons {sorted(curves.get(cell, {}))} != {sorted(study.horizons)}"))
    return curves, fails


def check_drift_recompute(out_dir, study: Study, label: str, seed: int, curves: dict, prefix_source: Student,
                          questions, rollout_seed: int) -> list:
    cell = cell_name(label, seed)
    trained = Student.load(os.path.join(out_dir, f"policy_{label}_s{seed}.txt"))
    mine = own_drift_curve(study, trained, prefix_source, questions, rollout_seed)
    theirs = curves.get(cell, {})
    fails = []
    for h, v in zip(study.horizons, mine):
        w = theirs.get(h, float("nan"))
        if not abs(v - w) <= DRIFT_RTOL * max(abs(w), 1e-12):
            fails.append(f"drift at horizon {h}: study wrote {w!r}, recomputed {v!r}")
    return [(cell, f) for f in fails]


# ---------------------------------------------------------------- all checks


def check_all(out_dir, study: Study, cells: list[dict], inputs: dict) -> list:
    """Every check on one study's outputs.

    ``cells`` holds the runner's per-cell ``label``, ``seed``, ``status`` and
    ``accuracy``; ``inputs`` the evaluation and drift questions (``eval``,
    ``drift``), per training seed the rollout seed and the untrained base
    student (``rollout_seed``, ``base``), and per cell the program's token
    weights of the trained student on the first corpus records (``weights``).
    """
    fails = check_corpus(out_dir, study)
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        n_records = json.load(fh)["n_retained"]
    for cell in cells:
        label, seed = cell["label"], cell["seed"]
        if cell["status"] != "ok":
            fails.append((cell_name(label, seed), f"cell {cell['status']}"))
            continue
        fails += check_history(out_dir, study, label, seed, n_records)
        fails += check_accuracy(out_dir, study, label, seed, inputs["eval"], cell["accuracy"])
        fails += check_token_weights(out_dir, study, label, seed, inputs["weights"][cell_name(label, seed)])
    if sorted(cell_name(c["label"], c["seed"]) for c in cells) != sorted(study.cells):
        fails.append(("study", "the study did not run one cell per (objective, seed)"))
    curves, curve_fails = read_curves(out_dir, study)
    fails += curve_fails
    # one cell is recomputed over the full drift set: the last objective at the first seed
    label, seed = sorted(study.objectives)[-1], study.seeds[0]
    if not any(op == cell_name(label, seed) for op, _ in fails):
        fails += check_drift_recompute(
            out_dir, study, label, seed, curves, inputs["base"][seed], inputs["drift"], inputs["rollout_seed"][seed]
        )
    return fails


def failed_cells(fails: list, n_cells: int) -> int:
    """Cells that a list of check failures marks failed: each named cell, or all of them."""
    ops = {op for op, _ in fails} - {"corpus"}
    return n_cells if "study" in ops else len(ops)


# ---------------------------------------------------------------- digest


def digest(out_dir) -> str:
    """SHA-256 over the names and bytes of the CSVs and snapshots a study wrote."""
    return _sha256(out_dir, [name for name in sorted(os.listdir(out_dir)) if name not in STUDY_INPUTS])


def corpus_digest(out_dir) -> str:
    """SHA-256 over the corpus and its manifest."""
    return _sha256(out_dir, CORPUS_FILES)


def _sha256(out_dir, names) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()
