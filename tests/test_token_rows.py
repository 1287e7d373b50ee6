"""Token rows built from flat int arrays against the validating constructor.

Problem sets, decoded traces and the read corpus build their
``TokenSequence``s with ``TokenSequence.from_rows``, which skips the
per-sequence cast and EOS scan of ``__post_init__`` because each set is
checked as a whole. Every such sequence must equal ``TokenSequence(tuple(row),
kind)`` of the same row and hold Python ints, since a numpy scalar would
print differently (``np.int64(5)``) and hash the same. The corpus reader's
one array test must accept and reject what a line-by-line reader does, with
the same message, and the lockstep teacher-forced windows must equal the
per-prefix ones (``tests/test_kernel.py`` checks the lockstep targets).
"""

import numpy as np
import pytest

from driftlab.policy import PolicyError, TabularPolicy, rollouts, stacked_windows
from driftlab.streams import uniform_block
from driftlab.task import (
    TaskConfig,
    TaskError,
    TeacherSpec,
    generate_corpus,
    generate_problems,
    read_corpus,
    teacher_policy,
    write_corpus,
)
from driftlab.vocab import BOS, EOS, MUL, TokenSequence, VocabularyError

from oracles import random_feedforward, random_prefixes, reference_read_corpus

CFG = TaskConfig(modulus=5, chain_length=3)
V = CFG.vocab().size
# corpus files of two-digit tokens (up to 15) as well as one-digit ones
CORPUS_CFG = TaskConfig(modulus=11, chain_length=3)


def assert_validated(seq, kind):
    assert seq == TokenSequence(tuple(seq.tokens), kind)
    assert seq.kind == kind and type(seq.tokens) is tuple
    assert all(type(t) is int for t in seq.tokens)


def test_from_rows_equals_the_validating_constructor():
    rows = [[BOS, 5, MUL, 6], [], [5, 6, 2, 7, EOS]]
    got = TokenSequence.from_rows(rows, "full")
    assert got == [TokenSequence(tuple(row), "full") for row in rows]
    assert hash(got[0]) == hash(TokenSequence(tuple(rows[0]), "full"))
    with pytest.raises(VocabularyError):
        TokenSequence.from_rows(rows, "answer")


@pytest.mark.parametrize("cfg", [CFG, TaskConfig(modulus=11, chain_length=8), TaskConfig(modulus=7, ops=(MUL,))])
def test_problem_rows_are_validated_sequences(cfg):
    for problem in generate_problems(cfg, 300, seed=17):
        assert_validated(problem.question, "question")
        assert_validated(problem.gold_trace, "trace")
        assert type(problem.gold_answer) is int and problem.gold_answer == problem.gold_trace.tokens[-2]


def _models():
    rng = np.random.Generator(np.random.PCG64(5))
    return [
        teacher_policy(TeacherSpec(0.3, 0.5), CFG),
        TabularPolicy(CFG.vocab(), 2, 0.8 * rng.standard_normal(V**3)),
        random_feedforward(CFG.vocab(), 2, 3, 4, 0.5, rng),
    ]


@pytest.mark.parametrize("max_len", (1, 4, 20))
def test_rollout_traces_are_validated_sequences(max_len):
    problems = generate_problems(CFG, 40, seed=3)
    # a bare BOS sinks the teacher, which then emits EOS at its first step
    questions = [p.question for p in problems] + [TokenSequence((BOS,), "question")]
    for model in _models():
        for uniforms in (None, uniform_block((9, np.arange(len(questions))), max_len)):
            got = rollouts(model, questions, max_len, uniforms=uniforms)
            for row, trace, n in zip(got.tokens.tolist(), got.traces, got.lengths.tolist()):
                want = row[: row.index(EOS) + 1] if EOS in row else row
                assert trace.tokens == tuple(want) and n == len(want)
                assert_validated(trace, "trace")


def _corpus_file(tmp_path, n=60):
    teacher = teacher_policy(TeacherSpec(0.2, 0.4), CORPUS_CFG)
    corpus = generate_corpus(teacher, generate_problems(CORPUS_CFG, n, seed=8), seed=9, max_len=12)
    path = tmp_path / "corpus.txt"
    write_corpus(corpus, path, header_comment="config_hash=cafe")
    return corpus, path


def test_read_corpus_rows_are_validated_sequences(tmp_path):
    corpus, path = _corpus_file(tmp_path)
    got = read_corpus(path, CORPUS_CFG.vocab())
    lines = path.read_text().splitlines()[1:]
    assert len(got) == len(corpus) == len(lines)
    for record, line in zip(got, lines):
        q, t, lp, flag = line.split("\t")
        assert record.question == TokenSequence(tuple(int(v) for v in q.split()), "question")
        assert record.trace == TokenSequence(tuple(int(v) for v in t.split()), "trace")
        assert_validated(record.question, "question")
        assert_validated(record.trace, "trace")
        assert np.array_equal(record.teacher_token_logps, [float(v) for v in lp.split()])
        assert record.teacher_correct is (flag == "1")


# one damage of a line's (question, trace, log-probs, flag) fields each
DAMAGES = [
    lambda q, t, lp, f: [q, t, lp],
    lambda q, t, lp, f: [q, t, lp, f, ""],
    lambda q, t, lp, f: ["", t, lp, f],
    lambda q, t, lp, f: [q, "", "", f],
    lambda q, t, lp, f: [" " + q + "  ", t, lp, f],
    lambda q, t, lp, f: [q.replace(" ", "\x0b", 1), t, lp, f],
    lambda q, t, lp, f: ["+0 05 " + q.split(" ", 2)[2], t, lp, f],
    lambda q, t, lp, f: [q, "٥ " + t, "-0.5 " + lp, f],
    lambda q, t, lp, f: [q, "x " + t, "-0.5 " + lp, f],
    lambda q, t, lp, f: [q, "1.5 " + t, "-0.5 " + lp, f],
    lambda q, t, lp, f: [q + " 99", t, lp, f],
    lambda q, t, lp, f: [q + " -1", t, lp, f],
    lambda q, t, lp, f: [q, "99999999999999999999 " + t, "-0.5 " + lp, f],
    lambda q, t, lp, f: [q, "1 " + t, "-0.5 " + lp, f],
    lambda q, t, lp, f: [q, t, lp.rsplit(" ", 1)[0], f],
    lambda q, t, lp, f: [q, t, "-0.5 " + lp, f],
    lambda q, t, lp, f: [q, t, "nan " + lp.split(" ", 1)[-1], f],
    lambda q, t, lp, f: [q, t, "0.25 " + lp.split(" ", 1)[-1], f],
    lambda q, t, lp, f: [q, t, "-1e500 " + lp.split(" ", 1)[-1], f],
    lambda q, t, lp, f: [q, t, "-1_0.5 " + lp.split(" ", 1)[-1], f],
    lambda q, t, lp, f: [q, t, "-0.5x " + lp.split(" ", 1)[-1], f],
    lambda q, t, lp, f: [q, t, lp, "yes"],
    lambda q, t, lp, f: [q, t, lp, ""],
    lambda q, t, lp, f: [q, t, lp, f + " "],
]


@pytest.mark.parametrize("with_vocab", (False, True))
def test_read_corpus_matches_the_line_by_line_reader(tmp_path, with_vocab):
    """Files with one to three damaged lines, each with one to three damages,
    read as the line-by-line reader reads them: the same records, or a
    TaskError with the same line and message."""
    _, path = _corpus_file(tmp_path, 12)
    clean = path.read_text().splitlines()
    vocab = CORPUS_CFG.vocab() if with_vocab else None
    rng = np.random.Generator(np.random.PCG64(11))
    outcomes = set()
    for trial in range(300):
        lines = list(clean)
        for at in rng.choice(np.arange(1, len(lines)), size=rng.integers(1, 4), replace=False).tolist():
            fields = lines[at].split("\t")
            for d in rng.integers(len(DAMAGES), size=rng.integers(1, 4)).tolist():
                if len(fields) == 4:
                    fields = DAMAGES[d](*fields)
            lines[at] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n")
        try:
            want = reference_read_corpus(path, vocab)
        except TaskError as exc:
            with pytest.raises(TaskError) as got:
                read_corpus(path, vocab)
            assert str(got.value) == str(exc)
            outcomes.add(str(exc).split(": ", 1)[1].split(" ")[0])
            continue
        got = read_corpus(path, vocab)
        assert [(r.question, r.trace, r.teacher_correct) for r in got] == [
            (r.question, r.trace, r.teacher_correct) for r in want
        ]
        assert all(np.array_equal(a.teacher_token_logps, b.teacher_token_logps) for a, b in zip(got, want))
        outcomes.add("accepted")
    # every kind of verdict showed up at least once
    assert {"accepted", "expected", "invalid", "could", "log-probabilities", "correct", "trace", "empty"} <= outcomes


def test_read_corpus_of_no_records(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("# config_hash=cafe\n\n")
    assert len(read_corpus(path, CORPUS_CFG.vocab())) == 0


@pytest.mark.parametrize("order", (1, 2, 3, 5))
def test_lockstep_windows_equal_per_prefix_windows(order):
    pairs = [(q, t) for q, t in random_prefixes(CFG, 300, seed=order) if q]
    windows = stacked_windows(order, V, [q for q, _ in pairs], [t for _, t in pairs])
    want = [([BOS] * order + q + t[:i])[-order:] for q, t in pairs for i in range(len(t))]
    assert np.array_equal(windows, np.array(want, dtype=np.int64).reshape(-1, order))
    with pytest.raises(PolicyError, match="non-empty"):
        stacked_windows(order, V, [[BOS], []], [[5], [5]])
    with pytest.raises(PolicyError, match="outside vocabulary"):
        stacked_windows(order, V, [[BOS], [BOS]], [[5], [V]])

