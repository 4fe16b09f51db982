import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moefix.corpus import (
    _OCR_CHARS,
    ALPHABET,
    CorrectionSample,
    MixtureDataset,
    NoiseChannel,
    Tokenizer,
    build_mixture,
    corrupt,
    corrupt_counted,
    derive_seed,
    gen_nbest,
    load_sentence_pool,
    make_sample,
    read_dataset,
    write_dataset,
)
from moefix.tasks import TaskRegistry

from helpers import edit_distance_bruteforce


@pytest.fixture
def registry():
    return TaskRegistry(["asr", "ocr", "typo"])


@pytest.fixture
def tok(registry):
    return Tokenizer(registry.names)


class TestTokenizer:
    def test_basic_round_trip(self, tok):
        assert tok.decode(tok.encode("hello")) == "hello"

    def test_empty(self, tok):
        assert tok.encode("").tolist() == []
        assert tok.decode([]) == ""

    @given(st.text(alphabet=ALPHABET, max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, text):
        tok = Tokenizer(["asr"])
        assert tok.decode(tok.encode(text)) == text

    def test_unknown_char_names_it(self, tok):
        with pytest.raises(ValueError, match="'Z'"):
            tok.encode("aZb")

    def test_plain_text_never_yields_special_ids(self, tok):
        ids = tok.encode("<eos>")
        assert len(ids) == 5
        assert not any(tok.is_special(i) for i in ids)

    def test_decode_rejects_bad_id(self, tok):
        with pytest.raises(ValueError, match="outside vocabulary"):
            tok.decode([tok.vocab_size])

    def test_vocab_layout(self, tok):
        assert tok.pad_id == 0
        assert tok.special_id("<asr>") != tok.special_id("<ocr>")
        assert tok.vocab_size == len(ALPHABET) + 4 + 3


class TestNoiseChannels:
    @pytest.mark.parametrize("kind", ["asr", "ocr", "typo"])
    def test_zero_intensity_is_identity(self, kind):
        channel = NoiseChannel(kind, 0.0)
        text = "the quick brown fox jumps over the lazy dog"
        assert corrupt(channel, text, seed=1) == text

    def test_forced_ocr_table(self):
        # at intensity 1 every character is swapped for one of its ocr confusions
        channel = NoiseChannel("ocr", 1.0)
        for seed in range(20):
            out = corrupt(channel, "llo", seed=seed)
            assert len(out) == 3
            assert all(c in _OCR_CHARS[src] for src, c in zip("llo", out))

    @pytest.mark.parametrize("kind", ["asr", "ocr", "typo"])
    def test_event_rate_matches_intensity(self, kind):
        # Monte-Carlo over ~1e5 characters at 3 sigma
        channel = NoiseChannel(kind, 0.1)
        text = " ".join(load_sentence_pool() * 25)
        n = len(text)
        assert n >= 100_000
        _, events = corrupt_counted(channel, text, seed=7)
        sigma = np.sqrt(0.1 * 0.9 / n)
        assert abs(events / n - 0.1) <= 3 * sigma

    @pytest.mark.parametrize("kind", ["asr", "ocr", "typo"])
    def test_deterministic_per_seed(self, kind):
        channel = NoiseChannel(kind, 0.4)
        text = "the miller grinds the corn by the old mill"
        assert corrupt(channel, text, 11) == corrupt(channel, text, 11)
        outs = {corrupt(channel, text, s) for s in range(20)}
        assert len(outs) > 1

    @pytest.mark.parametrize("kind", ["asr", "ocr", "typo"])
    def test_output_stays_in_alphabet(self, kind):
        channel = NoiseChannel(kind, 0.5)
        for seed in range(40):
            out = corrupt(channel, "their two wood claims turn down low", seed)
            assert all(c in ALPHABET for c in out), out

    def test_asr_swaps_homophones(self):
        channel = NoiseChannel("asr", 1.0)
        outs = {corrupt(channel, "their", s) for s in range(10)}
        assert "there" in outs

    def test_intensity_validation(self):
        with pytest.raises(ValueError, match="intensity"):
            NoiseChannel("ocr", 1.5)
        with pytest.raises(ValueError, match="kind"):
            NoiseChannel("mt", 0.1)


class TestNBest:
    def test_single_hypothesis_uses_derived_seed(self):
        channel = NoiseChannel("typo", 0.3)
        text = "a lantern glows in the fog"
        assert gen_nbest(channel, text, n=1, seed=5) == [corrupt(channel, text, derive_seed(5, 0))]

    def test_zero_intensity_gives_identical_copies(self):
        channel = NoiseChannel("asr", 0.0)
        assert gen_nbest(channel, "the tide comes in", n=5, seed=1) == ["the tide comes in"] * 5

    def test_hypotheses_are_diverse(self):
        channel = NoiseChannel("typo", 0.3)
        hyps = gen_nbest(channel, "the clock ticks in the hall", n=5, seed=9)
        dists = [edit_distance_bruteforce(a, b) for i, a in enumerate(hyps) for b in hyps[i + 1:]]
        assert np.mean(dists) > 0

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError, match="n=0"):
            gen_nbest(NoiseChannel("typo", 0.1), "x", n=0, seed=0)


def default_channels(intensity=0.2):
    return {"asr": NoiseChannel("asr", intensity),
            "ocr": NoiseChannel("ocr", intensity),
            "typo": NoiseChannel("typo", intensity)}


class TestMixture:
    def test_balanced_counts(self, registry):
        pool = load_sentence_pool(limit=30)
        ds = build_mixture(registry, default_channels(), pool, 100, 5, master_seed=1)
        assert len(ds) == 300
        per_task = {name: 0 for name in registry.names}
        for s in ds.samples:
            per_task[s.task.name] += 1
        assert set(per_task.values()) == {100}

    def test_serialized_dataset_is_reproducible(self, registry, tmp_path):
        pool = load_sentence_pool(limit=30)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_dataset(a, build_mixture(registry, default_channels(), pool, 40, 5, 7).samples)
        write_dataset(b, build_mixture(registry, default_channels(), pool, 40, 5, 7).samples)
        assert a.read_bytes() == b.read_bytes()

    def test_sample_reproducible_in_isolation(self, registry):
        pool = load_sentence_pool(limit=30)
        ds = build_mixture(registry, default_channels(), pool, 20, 3, master_seed=13)
        task = registry.get("ocr")
        rebuilt = make_sample(task, 11, default_channels()["ocr"], pool, 3, master_seed=13)
        match = [s for s in ds.samples if s.seed == rebuilt.seed]
        assert match == [rebuilt]

    def test_target_draw_is_uniform_chi_square(self, registry):
        # chi-square over 1e4 draws; critical value chi2(19, alpha=0.01) = 36.1909
        pool = load_sentence_pool(limit=20)
        channel = NoiseChannel("typo", 0.1)
        task = registry.get("typo")
        counts = np.zeros(len(pool))
        n = 10_000
        for j in range(n):
            s = make_sample(task, j, channel, pool, 1, master_seed=3)
            counts[pool.index(s.target)] += 1
        expected = n / len(pool)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 <= 36.1909

    def test_empty_pool_rejected(self, registry):
        with pytest.raises(ValueError, match="empty source"):
            build_mixture(registry, default_channels(), [], 10, 5, 1)

    def test_no_special_token_text_in_samples(self, registry, tok):
        pool = load_sentence_pool(limit=30)
        ds = build_mixture(registry, default_channels(0.5), pool, 30, 5, master_seed=21)
        for s in ds.samples:
            tok.encode(s.target)
            for h in s.hypotheses:
                tok.encode(h)  # raises if any char fell outside the alphabet


class TestDatasetIO:
    def test_round_trip(self, registry, tmp_path):
        pool = load_sentence_pool(limit=10)
        ds = build_mixture(registry, default_channels(), pool, 5, 3, master_seed=2)
        path = tmp_path / "data.jsonl"
        write_dataset(path, ds.samples)
        back = read_dataset(path, registry, ALPHABET)
        assert back == ds.samples

    def test_field_order_documented(self, registry, tmp_path):
        pool = load_sentence_pool(limit=5)
        ds = build_mixture(registry, default_channels(), pool, 1, 2, master_seed=2)
        path = tmp_path / "data.jsonl"
        write_dataset(path, ds.samples)
        first = path.read_text().splitlines()[0]
        assert list(json.loads(first)) == ["task", "hypotheses", "target", "seed"]

    def test_malformed_line_reports_number(self, registry, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps({"task": "asr", "hypotheses": ["a"], "target": "a", "seed": 1})
        path.write_text(good + "\nnot json\n")
        with pytest.raises(ValueError, match="line 2"):
            read_dataset(path, registry, ALPHABET)

    @pytest.mark.parametrize("field,value", [
        ("hypotheses", "helo"),  # a string is not a list of one-letter hypotheses
        ("hypotheses", []),
        ("hypotheses", ["a", 5]),
        ("target", 5),
        ("target", None),
        ("seed", "1"),
        ("seed", 1.5),
        ("seed", True),
    ])
    def test_field_of_the_wrong_type_is_malformed(self, registry, tmp_path, field, value):
        good = {"task": "asr", "hypotheses": ["a"], "target": "a", "seed": 1}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, field: value}) + "\n")
        with pytest.raises(ValueError, match=f"{path}: malformed dataset record on line 2"):
            read_dataset(path, registry, ALPHABET)

    def test_unknown_task_in_file(self, registry, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"task": "mt", "hypotheses": ["a"], "target": "a", "seed": 1}) + "\n")
        with pytest.raises(ValueError, match="line 1"):
            read_dataset(path, registry, ALPHABET)


class TestSources:
    def test_bundled_pool_is_clean(self):
        pool = load_sentence_pool()
        assert len(pool) >= 100
        assert all(all(c in ALPHABET for c in line) for line in pool)


class TestSampleValidation:
    def test_rejects_empty_hypotheses(self, registry):
        with pytest.raises(ValueError, match="hypothesis"):
            CorrectionSample(registry.get("asr"), (), "x", 0)

    def test_rejects_empty_target(self, registry):
        with pytest.raises(ValueError, match="nonempty"):
            CorrectionSample(registry.get("asr"), ("a",), "", 0)
