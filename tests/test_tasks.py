import numpy as np
import pytest

from moefix.corpus import Tokenizer
from moefix.tasks import (
    ExpertMap,
    TaskRegistry,
    build_expert_map,
    format_prompt,
    parse_output,
)


@pytest.fixture
def registry():
    return TaskRegistry(["asr", "ocr", "typo"])


@pytest.fixture
def tok(registry):
    return Tokenizer(registry.names)


class TestRegistry:
    def test_ids_contiguous(self, registry):
        assert [t.id for t in registry] == [0, 1, 2]
        assert registry.get("ocr").id == 1

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            TaskRegistry(["asr", "asr"])

    def test_unknown_task(self, registry):
        with pytest.raises(KeyError, match="unknown task"):
            registry.get("mt")


class TestExpertMap:
    def test_same_seed_identical(self, registry):
        a = build_expert_map(registry, 8, seed=5)
        b = build_expert_map(registry, 8, seed=5)
        assert a == b

    def test_injective_when_tasks_fit(self, registry):
        emap = build_expert_map(registry, 8, seed=1)
        assert len(set(emap.assignment)) == 3
        assert all(0 <= e < 8 for e in emap.assignment)

    def test_round_robin_beyond_capacity(self):
        registry = TaskRegistry([f"t{i}" for i in range(7)])
        emap = build_expert_map(registry, 3, seed=2)
        counts = np.bincount(emap.assignment, minlength=3)
        assert counts.max() - counts.min() <= 1  # as even as 7 over 3 allows

    def test_single_expert_takes_every_task(self, registry):
        # a dense model: one expert, so every task maps to it
        assert build_expert_map(registry, 1, seed=0).assignment == (0, 0, 0)

    def test_assignment_marginal_is_uniform(self, registry):
        # over seeds, task 0 lands on each of 8 experts with frequency 1/8
        hits = np.zeros(8)
        n = 1000
        for seed in range(n):
            hits[build_expert_map(registry, 8, seed).assignment[0]] += 1
        p = 1 / 8
        sigma = np.sqrt(p * (1 - p) / n)
        assert np.abs(hits / n - p).max() <= 3 * sigma

    def test_dict_round_trip(self, registry):
        emap = build_expert_map(registry, 4, seed=9)
        assert ExpertMap.from_dict(emap.to_dict()) == emap


class TestFormatPrompt:
    def test_inference_layout_ends_at_target_sep(self, registry, tok):
        ids, mask = format_prompt(tok, registry.get("asr"), ["tha cat", "the cat"])
        assert ids[0] == tok.special_id("<asr>")
        assert ids[-1] == tok.special_id("<out>")
        assert not mask.any()

    def test_training_layout_masks_target_and_eos(self, registry, tok):
        ids, mask = format_prompt(tok, registry.get("ocr"), ["w0rd"], target="word")
        assert ids[-1] == tok.eos_id
        assert mask.sum() == len("word") + 1
        assert mask[-(len("word") + 1):].all()
        assert not mask[: -(len("word") + 1)].any()

    def test_decode_reproduces_prompt_text(self, registry, tok):
        ids, _ = format_prompt(tok, registry.get("typo"), ["teh dog"], target="the dog")
        assert tok.decode(ids) == "<typo>correct:<hyp>teh dog<out>the dog<eos>"

    def test_rejects_empty_hypotheses(self, registry, tok):
        with pytest.raises(ValueError, match="hypothesis"):
            format_prompt(tok, registry.get("asr"), [])

    def test_unknown_task_tag(self, registry):
        lean_tok = Tokenizer(["asr"])  # no <ocr> tag registered
        with pytest.raises(KeyError, match="unknown special"):
            format_prompt(lean_tok, registry.get("ocr"), ["x"])

    def test_conditioning_tokens_never_masked(self, registry, tok):
        rng = np.random.default_rng(0)
        for _ in range(25):
            nhyp = int(rng.integers(1, 6))
            hyps = ["".join(rng.choice(list("abc "), size=8)) for _ in range(nhyp)]
            ids, mask = format_prompt(tok, registry.get("asr"), hyps, target="abc")
            sep = tok.special_id("<out>")
            boundary = int(np.nonzero(ids == sep)[0][-1])
            assert not mask[: boundary + 1].any()
            assert mask[boundary + 1:].all()


class TestParseOutput:
    def test_stops_at_eos(self, registry, tok):
        ids = np.concatenate([tok.encode("abc"), [tok.eos_id], tok.encode("garbage")])
        assert parse_output(tok, ids) == "abc"

    def test_empty_generation(self, tok):
        assert parse_output(tok, np.array([], dtype=np.int64)) == ""

    def test_strips_special_tokens(self, registry, tok):
        ids = np.concatenate([[tok.special_id("<hyp>")], tok.encode("ok"), [tok.pad_id]])
        assert parse_output(tok, ids) == "ok"

    def test_round_trip_through_identity_generator(self, registry, tok):
        rng = np.random.default_rng(1)
        chars = list("abcdefgh ,.")
        for _ in range(50):
            text = "".join(rng.choice(chars, size=int(rng.integers(1, 30)))).strip() or "a"
            ids, mask = format_prompt(tok, registry.get("typo"), [text], target=text)
            generated = ids[mask]  # an oracle generator emitting exactly the target span
            assert parse_output(tok, generated) == text
