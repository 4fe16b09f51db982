"""Synthetic multi-task correction corpus: tokenizer, noise channels, mixture.

The channels stand in for real first-pass recognizers. All of them corrupt
each character with an independent Bernoulli(intensity) event; what differs is
the replacement distribution: phonetic confusions plus word homophones
(asr-like), visually confusable glyphs including digraphs (ocr-like), and
keyboard-driven substitution/transposition/deletion/insertion (typo).
Every sample is reproducible in isolation from its derived seed.
"""
from __future__ import annotations

import json
import string
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .tasks import TaskId, TaskRegistry

ALPHABET = " abcdefghijklmnopqrstuvwxyzI0123456789.,'?!-:<>"

BASE_SPECIALS = ("<pad>", "<eos>", "<hyp>", "<out>")

_PUNCT = str.maketrans("", "", string.punctuation)


def normalize_words(text: str) -> list[str]:
    """The words WER and BLEU score: lowercase, ASCII punctuation stripped,
    split on whitespace."""
    return text.lower().translate(_PUNCT).split()


class Tokenizer:
    """Character-level tokenizer over a fixed alphabet plus special tokens.

    Special ids are only ever produced programmatically (prompt layout);
    encoding plain text is strictly character-by-character, so text like
    "<eos>" encodes to its characters, never to the special id.
    """

    def __init__(self, task_names, alphabet: str = ALPHABET) -> None:
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet has duplicate characters")
        self.alphabet = alphabet
        self.specials = list(BASE_SPECIALS) + [f"<{name}>" for name in task_names]
        self.vocab = self.specials + list(alphabet)
        self._special_ids = {tok: i for i, tok in enumerate(self.specials)}
        self._char_ids = {c: len(self.specials) + i for i, c in enumerate(alphabet)}

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    @property
    def pad_id(self) -> int:
        return self._special_ids["<pad>"]

    @property
    def eos_id(self) -> int:
        return self._special_ids["<eos>"]

    def special_id(self, token: str) -> int:
        try:
            return self._special_ids[token]
        except KeyError:
            raise KeyError(f"unknown special token {token!r}") from None

    def is_special(self, token_id: int) -> bool:
        return 0 <= token_id < len(self.specials)

    def encode(self, text: str) -> np.ndarray:
        try:
            return np.array([self._char_ids[c] for c in text], dtype=np.int64)
        except KeyError as exc:
            raise ValueError(f"character {exc.args[0]!r} is not in the tokenizer alphabet") from None

    def decode(self, ids) -> str:
        out = []
        for i in np.asarray(ids, dtype=np.int64).tolist():
            if not 0 <= i < len(self.vocab):
                raise ValueError(f"token id {i} outside vocabulary of size {len(self.vocab)}")
            out.append(self.vocab[i])
        return "".join(out)


# --- noise channels ---------------------------------------------------------

_PHONETIC_CLASSES = (
    "bp", "dt", "sz", "kgc", "fv", "mn", "aei", "ou",
)

_HOMOPHONES = {
    "their": ("there",), "there": ("their",),
    "to": ("too", "two"), "too": ("to", "two"), "two": ("to", "too"),
    "for": ("four",), "four": ("for",),
    "see": ("sea",), "sea": ("see",),
    "hear": ("here",), "here": ("hear",),
    "right": ("write",), "write": ("right",),
    "new": ("knew",), "knew": ("new",),
    "sun": ("son",), "son": ("sun",),
    "one": ("won",), "won": ("one",),
    "no": ("know",), "know": ("no",),
    "wear": ("where",), "where": ("wear",),
    "would": ("wood",), "wood": ("would",),
}

_OCR_CHARS = {
    "o": ("0",), "0": ("o",),
    "l": ("1", "I"), "1": ("l", "I"), "I": ("l", "1"), "i": ("l",),
    "e": ("c",), "c": ("e",),
    "a": ("o",), "u": ("v",), "v": ("u",),
    "g": ("q",), "q": ("g",),
    "s": ("5",), "5": ("s",),
    "t": ("f",), "f": ("t",),
    "h": ("b",), "b": ("h",),
    "m": ("rn",), "w": ("vv",),
    "d": ("cl",),
}

_OCR_DIGRAPHS = {"rn": "m", "cl": "d", "vv": "w"}

_QWERTY_ROWS = ("qwertyuiop", "asdfghjkl", "zxcvbnm")


def _keyboard_neighbors() -> dict[str, tuple[str, ...]]:
    pos = {}
    for r, row in enumerate(_QWERTY_ROWS):
        for c, ch in enumerate(row):
            pos[ch] = (r, c)
    table = {}
    for ch, (r, c) in pos.items():
        near = [o for o, (ro, co) in pos.items()
                if o != ch and abs(ro - r) <= 1 and abs(co - c) <= 1]
        table[ch] = tuple(sorted(near))
    return table

_KEYBOARD = _keyboard_neighbors()


def _phonetic_table() -> dict[str, tuple[str, ...]]:
    table = {}
    for cls in _PHONETIC_CLASSES:
        for ch in cls:
            table[ch] = tuple(o for o in cls if o != ch)
    return table

_PHONETIC = _phonetic_table()


@dataclass
class NoiseChannel:
    """A synthetic recognizer-error source of one kind (asr, ocr or typo)."""

    kind: str
    intensity: float

    def __post_init__(self) -> None:
        if self.kind not in ("asr", "ocr", "typo"):
            raise ValueError(f"unknown channel kind {self.kind!r} (available: asr, ocr, typo)")
        if not 0.0 <= self.intensity <= 1.0:
            raise ValueError(f"intensity must be in [0, 1], got {self.intensity}")


def _pick(rng: np.random.Generator, options) -> str:
    return options[int(rng.integers(0, len(options)))]


def _corrupt_asr(channel: NoiseChannel, text: str, rng) -> tuple[str, int]:
    events = 0
    out = []
    for token in text.split(" "):
        hits = [i for i in range(len(token)) if rng.random() < channel.intensity]
        events += len(hits)
        if hits and token in _HOMOPHONES:
            out.append(_pick(rng, _HOMOPHONES[token]))
            continue
        chars = list(token)
        for i in hits:
            options = _PHONETIC.get(chars[i])
            if options:
                chars[i] = _pick(rng, options)
        out.append("".join(chars))
        # the joining space also draws its (no-op) event
    for _ in range(max(len(out) - 1, 0)):
        if rng.random() < channel.intensity:
            events += 1
    return " ".join(out), events


def _corrupt_ocr(channel: NoiseChannel, text: str, rng) -> tuple[str, int]:
    events = 0
    out = []
    i = 0
    while i < len(text):
        hit = rng.random() < channel.intensity
        if not hit:
            out.append(text[i])
            i += 1
            continue
        events += 1
        pair = text[i:i + 2]
        if len(pair) == 2 and pair in _OCR_DIGRAPHS:
            # the consumed second character still spends its own event draw
            if rng.random() < channel.intensity:
                events += 1
            out.append(_OCR_DIGRAPHS[pair])
            i += 2
            continue
        options = _OCR_CHARS.get(text[i])
        out.append(_pick(rng, options) if options else text[i])
        i += 1
    return "".join(out), events


def _corrupt_typo(channel: NoiseChannel, text: str, rng) -> tuple[str, int]:
    events = 0
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if rng.random() >= channel.intensity:
            out.append(c)
            i += 1
            continue
        events += 1
        op = int(rng.integers(0, 4))
        neighbors = _KEYBOARD.get(c)
        if op == 0:  # substitute
            out.append(_pick(rng, neighbors) if neighbors else c)
            i += 1
        elif op == 1 and i + 1 < len(text):  # transpose with the next character
            if rng.random() < channel.intensity:
                events += 1  # consumed character's own draw
            out.append(text[i + 1])
            out.append(c)
            i += 2
        elif op == 2:  # delete
            i += 1
        else:  # insert a stray neighboring keystroke
            out.append(_pick(rng, neighbors) if neighbors else c)
            out.append(c)
            i += 1
    return "".join(out), events


_CORRUPTORS = {"asr": _corrupt_asr, "ocr": _corrupt_ocr, "typo": _corrupt_typo}


def corrupt(channel: NoiseChannel, text: str, seed: int) -> str:
    """Corrupt ``text`` deterministically for the given seed."""
    return corrupt_counted(channel, text, seed)[0]


def corrupt_counted(channel: NoiseChannel, text: str, seed: int) -> tuple[str, int]:
    """As ``corrupt`` but also reports the number of Bernoulli corruption
    events, the seam the rate tests measure (an event on a character with no
    confusable replacement leaves it unchanged)."""
    rng = np.random.default_rng(seed)
    return _CORRUPTORS[channel.kind](channel, text, rng)


def derive_seed(*parts: int) -> int:
    """Stable child seed from integer parts; used so any sample or hypothesis
    is reproducible in isolation."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def gen_nbest(channel: NoiseChannel, text: str, n: int = 5, seed: int = 0) -> list[str]:
    """n hypotheses from independent per-hypothesis seeds (duplicates allowed,
    as in real n-best lists)."""
    if n < 1:
        raise ValueError(f"need at least one hypothesis, got n={n}")
    return [corrupt(channel, text, derive_seed(seed, i)) for i in range(n)]


# --- mixture ----------------------------------------------------------------

@dataclass(frozen=True)
class CorrectionSample:
    task: TaskId
    hypotheses: tuple[str, ...]
    target: str
    seed: int

    def __post_init__(self) -> None:
        if not self.hypotheses:
            raise ValueError("a sample needs at least one hypothesis")
        if not self.target or any(not h for h in self.hypotheses):
            raise ValueError("hypotheses and target must be nonempty")


@dataclass
class MixtureDataset:
    samples: list[CorrectionSample]
    master_seed: int

    def __len__(self) -> int:
        return len(self.samples)


_HYP_SALT = 0x68  # 'h'
_SHUFFLE_SALT = 0x73  # 's'


def make_sample(task: TaskId, index: int, channel: NoiseChannel, source_texts,
                n_best: int, master_seed: int) -> CorrectionSample:
    """The sample at (task, index) for a master seed, buildable in isolation."""
    seed = derive_seed(master_seed, task.id, index)
    rng = np.random.default_rng(seed)
    target = source_texts[int(rng.integers(0, len(source_texts)))]
    hyps = gen_nbest(channel, target, n_best, seed=derive_seed(seed, _HYP_SALT))
    return CorrectionSample(task=task, hypotheses=tuple(hyps), target=target, seed=seed)


def build_mixture(registry: TaskRegistry, channels: dict, source_texts,
                  samples_per_task: int, n_best: int, master_seed: int) -> MixtureDataset:
    """Balanced dataset, ``samples_per_task`` per task, deterministically
    shuffled. Content is a pure function of the arguments."""
    source_texts = list(source_texts)
    if not source_texts:
        raise ValueError("empty source text pool")
    samples = []
    for task in registry:
        channel = channels[task.name]
        for j in range(samples_per_task):
            samples.append(make_sample(task, j, channel, source_texts, n_best, master_seed))
    order = np.random.default_rng(derive_seed(master_seed, _SHUFFLE_SALT)).permutation(len(samples))
    return MixtureDataset([samples[i] for i in order], master_seed)


# --- dataset file io --------------------------------------------------------

def write_dataset(path, samples) -> None:
    """Line-delimited JSON records with field order task, hypotheses, target, seed."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            record = {"task": s.task.name, "hypotheses": list(s.hypotheses),
                      "target": s.target, "seed": s.seed}
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def read_dataset(path, registry: TaskRegistry, alphabet: str) -> list[CorrectionSample]:
    """The samples of a file written by ``write_dataset``. A malformed record
    (a field of the wrong JSON type included: hypotheses must be a non-empty
    list of strings, target a string with at least one word as
    ``normalize_words`` splits it, seed an integer), or a hypothesis or
    target with a character outside ``alphabet`` (the tokenizer's), is an
    error that names the file and line."""
    samples = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                hypotheses, target, seed = rec["hypotheses"], rec["target"], rec["seed"]
                if type(hypotheses) is not list or not all(isinstance(h, str) for h in hypotheses):
                    raise TypeError(f"hypotheses must be a list of strings, got {hypotheses!r}")
                if not isinstance(target, str):
                    raise TypeError(f"target must be a string, got {target!r}")
                if not normalize_words(target):  # WER has no reference words to score
                    raise ValueError(f"target has no words: {target!r}")
                if type(seed) is not int:  # a JSON integer, not a float, string or bool
                    raise TypeError(f"seed must be an integer, got {seed!r}")
                sample = CorrectionSample(task=registry.get(rec["task"]),
                                          hypotheses=tuple(hypotheses), target=target, seed=seed)
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}: malformed dataset record on line {lineno}: {exc}") from None
            check_alphabet(f"{path}: line {lineno}", (*sample.hypotheses, sample.target), alphabet)
            samples.append(sample)
    return samples


def check_alphabet(where: str, texts, alphabet: str) -> None:
    """Raise ValueError, naming ``where``, if a text holds a character outside
    ``alphabet``: the tokenizer could not encode it."""
    foreign = set("".join(texts)) - set(alphabet)
    if foreign:
        raise ValueError(f"{where}: character {min(foreign)!r} is not in the tokenizer alphabet")


# --- source texts -----------------------------------------------------------

def load_sentence_pool(path=None, limit: int | None = None) -> list[str]:
    """Bundled public-domain-style sentence list, or a caller-provided file:
    its first ``limit`` non-blank lines (all without a limit), stripped.

    A kept line with no word as ``normalize_words`` splits it, or with a
    character outside the tokenizer's ``ALPHABET``, would make records that
    ``read_dataset`` rejects; either is an error that names the file and
    line, as is a file with no line."""
    if path is None:
        where = "moefix/data/sentences.txt"
        text = resources.files("moefix").joinpath("data/sentences.txt").read_text("utf-8")
    else:
        where = path
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    pool = [(lineno, line.strip()) for lineno, line in enumerate(text.splitlines(), start=1)
            if line.strip()][:limit or None]
    if not pool:
        raise ValueError(f"{where}: empty source text pool")
    for lineno, line in pool:
        if not normalize_words(line):
            raise ValueError(f"{where}: line {lineno}: sentence has no words: {line!r}")
        check_alphabet(f"{where}: line {lineno}", [line], ALPHABET)
    return [line for _, line in pool]
