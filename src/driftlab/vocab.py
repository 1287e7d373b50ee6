"""Token inventory shared by every policy, teacher, and metric.

The vocabulary is fixed by the task modulus: three control tokens, two
operator tokens, and one value token per residue class. Indices are frozen
so corpora, policy snapshots, and metric tables agree without a registry.
"""

from __future__ import annotations

from dataclasses import dataclass

BOS = 0
EOS = 1
ANSWER_MARK = 2
ADD = 3
MUL = 4

N_SPECIAL = 5
VALUE_BASE = 5

OP_NAMES = {ADD: "ADD", MUL: "MUL"}

SEQ_KINDS = ("question", "trace", "full")


class VocabularyError(ValueError):
    """Raised for out-of-range residues or token indices."""


@dataclass(frozen=True)
class Vocabulary:
    """Token space for a modulus-m chain task: 5 special tokens plus m values."""

    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 3:
            raise VocabularyError(f"modulus must be >= 3, got {self.modulus}")

    @property
    def size(self) -> int:
        return self.modulus + N_SPECIAL

    def value_token(self, residue: int) -> int:
        if not 0 <= residue < self.modulus:
            raise VocabularyError(f"residue {residue} outside [0, {self.modulus})")
        return VALUE_BASE + residue


@dataclass(frozen=True)
class TokenSequence:
    """Immutable token run tagged with its role (question / trace / full)."""

    tokens: tuple[int, ...]
    kind: str = "full"

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(int(t) for t in self.tokens))
        if self.kind not in SEQ_KINDS:
            raise VocabularyError(f"unknown sequence kind {self.kind!r}")
        if self.kind == "trace" and EOS in self.tokens:
            # a trace carries at most one EOS and it terminates the sequence
            if self.tokens.index(EOS) != len(self.tokens) - 1:
                raise VocabularyError("trace has tokens after its EOS")

    @classmethod
    def from_rows(cls, rows, kind: str) -> list["TokenSequence"]:
        """One sequence per row of Python ints, such as the rows of an int
        array's ``tolist()``, with none of ``__post_init__``'s per-sequence
        work: the caller has checked the rows as a set, and a trace's EOS
        only ends it."""
        if kind not in SEQ_KINDS:
            raise VocabularyError(f"unknown sequence kind {kind!r}")
        new, setattr_ = object.__new__, object.__setattr__
        out = []
        for row in rows:
            seq = new(cls)
            setattr_(seq, "tokens", tuple(row))
            setattr_(seq, "kind", kind)
            out.append(seq)
        return out

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)

    @property
    def ends_with_eos(self) -> bool:
        return len(self.tokens) > 0 and self.tokens[-1] == EOS

    def up_to_eos(self) -> tuple[int, ...]:
        """Tokens before the first EOS (the whole run if none)."""
        if EOS in self.tokens:
            return self.tokens[: self.tokens.index(EOS)]
        return self.tokens
