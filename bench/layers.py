"""Per-layer metrics from a traced round's call tree (see tracer.py)."""

from __future__ import annotations

import json
import os
from collections import defaultdict

LAYERS = ("config", "task", "policy", "objectives", "training", "metrics", "harness")

# name -> (unit, better), in the order of BENCHMARK.json
with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")) as _fh:
    PER_LAYER = {m["name"]: (m["unit"], m["better"]) for m in json.load(_fh)["per_layer"]}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class CallTree:
    def __init__(self, nodes: list[dict]):
        self.nodes = nodes
        self.children: dict[int, list[int]] = defaultdict(list)
        for i, n in enumerate(nodes):
            if n["parent"] is not None:
                self.children[n["parent"]].append(i)

    def named(self, *names: str) -> list[int]:
        return [i for i, n in enumerate(self.nodes) if n["name"] in names]

    def total(self, ids) -> float:
        return sum(self.nodes[i]["total"] for i in ids)

    def count(self, ids) -> int:
        return sum(self.nodes[i]["count"] for i in ids)

    def self_time(self, i: int) -> float:
        return self.nodes[i]["total"] - self.total(self.children[i])

    def within(self, ancestor_names: tuple[str, ...], *names: str) -> list[int]:
        """Nodes named ``names`` that have an ancestor named in ``ancestor_names``."""
        out = []
        for i in self.named(*names):
            p = self.nodes[i]["parent"]
            while p is not None:
                if self.nodes[p]["name"] in ancestor_names:
                    out.append(i)
                    break
                p = self.nodes[p]["parent"]
        return out

    def subtree(self, roots) -> list[int]:
        out, todo = [], list(roots)
        while todo:
            i = todo.pop()
            out.append(i)
            todo.extend(self.children[i])
        return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def per_layer_metrics(nodes: list[dict], manifest: dict, steps: int, untraced_study_s: float) -> dict[str, float]:
    t = CallTree(nodes)
    n = t.named
    studies = n("harness.run_drift", "harness.run_matrix")
    study_s = t.total(studies)
    train = t.named("training.train")
    train_s = t.total(train)
    teacher = n("task.teacher_call")
    train_tokens = t.count(t.within(("training.train",), "policy.grad"))
    decode = n("policy.greedy_decode", "policy.sample_sequence")
    decode_s = t.total(decode)
    accuracy = n("metrics.final_answer_accuracy")
    accuracy_s = t.total(accuracy)
    cells = n("harness._run_cell")
    quality_decodes = [i for i in n("policy.greedy_decode") if t.nodes[t.nodes[i]["parent"]]["name"] == "harness._run_cell"]
    gen_corpus = n("harness.run_gen_corpus")
    self_by_layer: dict[str, float] = defaultdict(float)
    for i, node in enumerate(nodes[1:], start=1):
        self_by_layer[layer_of(node["name"])] += t.self_time(i)
    m = {
        "config.load_s": t.total(n("config.load_config")),
        "task.generate_corpus_s": t.total(
            [c for g in gen_corpus for c in t.children[g]
             if t.nodes[c]["name"] in ("task.generate_problems", "task.generate_corpus", "task.filter_teacher_correct")]
        ),
        "task.write_corpus_s": t.total(n("task.write_corpus")),
        "task.teacher_calls": t.count(teacher),
        "task.teacher_call_us": 1e6 * _ratio(t.total(teacher), t.count(teacher)),
        "task.read_corpus_calls": t.count(n("task.read_corpus")),
        "task.corpus_retention": _ratio(manifest["n_retained"], manifest["n_records"]),
        "policy.student_forwards": t.count(n("policy.forward")),
        "policy.forwards_per_train_token": _ratio(t.count(t.within(("training.train",), "policy.forward")), train_tokens),
        "policy.grad_calls": t.count(n("policy.grad")),
        "policy.decode_s": decode_s,
        "policy.decode_tokens_per_s": _ratio(sum(t.nodes[i]["tokens"] for i in decode), decode_s),
        "policy.save_s": t.total(n("policy.save_policy")),
        "objectives.loss_s": t.total(n("objectives.sft_loss_frozen", "objectives.kl_loss_frozen")),
        "objectives.weights_s": t.total(n("objectives.record_token_weights")),
        "objectives.gkd_step_s": t.total(n("objectives.gkd_step")),
        "training.train_s": train_s,
        "training.steps": steps,
        "training.step_ms": 1e3 * _ratio(train_s, steps),
        "training.tokens_per_s": _ratio(train_tokens, train_s),
        "training.teacher_calls": t.count(t.within(("training.train",), "task.teacher_call")),
        "metrics.accuracy_s": accuracy_s,
        "metrics.drift_s": t.total(n("metrics.prefix_drift_eval", "metrics.exaccerr")),
        "metrics.quality_s": t.total(quality_decodes) + t.total(n("metrics.trace_quality")),
        "metrics.problems_per_s": _ratio(t.count(t.within(("metrics.final_answer_accuracy",), "policy.greedy_decode")), accuracy_s),
        "harness.cell_s": _ratio(t.total(cells), len(cells)),
        "harness.load_corpus_s": t.total(n("harness.load_corpus_checked")),
        "harness.problem_sets_s": t.total(n("harness.eval_problems", "harness.drift_problems")),
        "harness.self_s": sum(t.self_time(i) for i in t.subtree(studies) if layer_of(t.nodes[i]["name"]) == "harness"),
        **{f"{layer}.self_s": self_by_layer[layer] for layer in LAYERS if layer != "harness"},
        "trace.study_s": study_s,
        "trace.overhead_s": study_s - untraced_study_s,
    }
    return m


def shares(m: dict[str, float]) -> dict[str, float]:
    """The shares of the traced study that show which layers a workload loads."""
    study = m["trace.study_s"]
    return {
        "train_share": _ratio(m["training.train_s"], study),
        "eval_share": _ratio(m["metrics.accuracy_s"] + m["metrics.drift_s"] + m["metrics.quality_s"], study),
    }
