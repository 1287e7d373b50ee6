"""Call tracing for the traced run: wraps driftlab's public functions under the
names their callers use and keeps the calls in memory as a tree.

Coarse calls (a study runner, a cell, a training run, an evaluation) become one
span each, with start, end, parent and cell. Hot calls (teacher calls, student
forwards and gradients, rollouts) are folded into one node per calling span and
name, holding a count, a total time and a token count, so that a study of a
million teacher calls stays small in memory. A layer's self time is the time
of its nodes minus the time of their child nodes.
"""

from __future__ import annotations

import json
import time
from functools import wraps


class Tracer:
    def __init__(self):
        self.nodes: list[dict] = [self._node("worker", None, "", "span")]
        self.nodes[0]["start"] = time.perf_counter()
        self._folded: dict[tuple[int, str], int] = {}
        self._stack = [0]

    @staticmethod
    def _node(name, parent, cell, kind):
        return {"name": name, "parent": parent, "cell": cell, "kind": kind, "count": 0, "total": 0.0, "tokens": 0}

    def wrap(self, fn, name, hot=False, cell_of=None, name_of=None, tokens_of=None):
        """A wrapper of ``fn`` that records each call as a span, or folded when ``hot``.

        ``cell_of(args)`` names the cell a span opens; ``name_of(args)`` may
        replace the node name per call; ``tokens_of(result)`` counts tokens.
        """
        nodes, folded, stack, clock = self.nodes, self._folded, self._stack, time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            call_name = name_of(args) if name_of is not None else name
            if hot:
                key = (parent, call_name)
                idx = folded.get(key)
                if idx is None:
                    idx = folded[key] = len(nodes)
                    nodes.append(self._node(call_name, parent, nodes[parent]["cell"], "folded"))
            else:
                idx = len(nodes)
                cell = cell_of(args) if cell_of is not None else nodes[parent]["cell"]
                nodes.append(self._node(call_name, parent, cell, "span"))
            node = nodes[idx]
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                node["count"] += 1
                node["total"] += end - start
                if not hot:
                    node["start"], node["end"] = start, end
            if tokens_of is not None:
                node["tokens"] += tokens_of(out)
            return out

        return wrapper

    def patch(self, owner, attr, name, **kw):
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, **kw))

    def finish(self) -> None:
        root = self.nodes[0]
        root["end"] = time.perf_counter()
        root["count"] = 1
        root["total"] = root["end"] - root["start"]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"nodes": self.nodes}, fh)


def install(tracer: Tracer, dl) -> None:
    """Wrap each layer's public calls of the imported driftlab package ``dl``.

    Functions are wrapped in the module that calls them (``train`` as the
    harness calls it, ``evaluate_objective`` as training calls it), methods on
    their class. Nothing inside driftlab is edited.
    """
    config, harness, metrics, objectives, policy, task, training = (
        dl.config, dl.harness, dl.metrics, dl.objectives, dl.policy, dl.task, dl.training
    )

    def is_student(args):
        return isinstance(args[0], policy.ParametricPolicy)

    def decode_name(base):
        return lambda args: f"policy.{base}" if is_student(args) else f"task.teacher_{base}"

    p = tracer.patch
    p(config, "load_config", "config.load_config")
    # harness: the runners as the benchmark calls them, the rest as the harness calls them
    for attr in ("run_gen_corpus", "run_drift", "run_matrix", "load_corpus_checked", "eval_problems", "drift_problems"):
        p(harness, attr, f"harness.{attr}")
    p(harness, "_run_cell", "harness._run_cell", cell_of=lambda args: f"{args[0][1]}_s{args[0][3]}")
    for attr in ("generate_problems", "generate_corpus", "filter_teacher_correct", "write_corpus", "read_corpus"):
        p(harness, attr, f"task.{attr}")
    p(harness, "train", "training.train")
    for attr in ("final_answer_accuracy", "prefix_drift_eval", "exaccerr", "trace_quality"):
        p(harness, attr, f"metrics.{attr}")
    p(harness, "save_policy", "policy.save_policy")
    # the greedy decode the harness makes itself is the second decode, for trace quality
    p(harness, "greedy_decode", "policy.greedy_decode", hot=True, name_of=decode_name("greedy_decode"), tokens_of=len)
    p(metrics, "greedy_decode", "policy.greedy_decode", hot=True, name_of=decode_name("greedy_decode"), tokens_of=len)
    p(metrics, "sample_sequence", "policy.sample_sequence", hot=True, name_of=decode_name("sample_sequence"), tokens_of=len)
    # objectives as training calls them, and the loss parts as the losses call them
    p(training, "evaluate_objective", "objectives.evaluate_objective", hot=True)
    p(training, "gkd_step", "objectives.gkd_step", hot=True)
    for attr in ("record_token_weights", "sft_loss_frozen", "kl_loss_frozen", "js_sequence_loss", "_sample_trace"):
        p(objectives, attr, f"objectives.{attr}", hot=True)
    # per-token calls
    p(task.ChainTeacher, "next_token_distribution", "task.teacher_call", hot=True)
    p(policy.ParametricPolicy, "next_token_distribution", "policy.forward", hot=True)
    p(policy.ParametricPolicy, "log_next_token_distribution", "policy.forward", hot=True)
    p(policy.TabularPolicy, "accumulate_logit_grad", "policy.grad", hot=True)
    p(policy.FeedForwardPolicy, "accumulate_logit_grad", "policy.grad", hot=True)
