import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moefix.corpus import CorrectionSample
from moefix.metrics import EvalReport, WerBreakdown, bleu, evaluate, normalize_words, wer
from moefix.tasks import TaskRegistry

from bleu_reference import TOY_HYPOTHESES, TOY_REFERENCES, reference_bleu
from helpers import edit_distance_bruteforce

WORDS = ["the", "cat", "dog", "mill", "river", "old", "warm", "lamp", "a", "on"]


def random_sentence(rng, lo=1, hi=9):
    return " ".join(rng.choice(WORDS, size=int(rng.integers(lo, hi))))


class TestWer:
    def test_identical_is_zero(self):
        assert wer("a b c", "a b c").wer == 0.0

    def test_single_substitution(self):
        b = wer("a b c", "a x c")
        assert (b.substitutions, b.deletions, b.insertions) == (1, 0, 0)
        assert b.wer == pytest.approx(1 / 3)

    def test_pure_deletion_and_insertion(self):
        assert wer("a b c", "a c").deletions == 1
        assert wer("a c", "a b c").insertions == 1

    def test_matches_bruteforce_oracle_on_1000_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            ref = random_sentence(rng)
            hyp = random_sentence(rng, lo=0)
            b = wer(ref, hyp)
            assert b.errors == edit_distance_bruteforce(ref.split(), hyp.split())

    def test_swap_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, b = random_sentence(rng), random_sentence(rng)
            ab, ba = wer(a, b), wer(b, a)
            assert ab.substitutions == ba.substitutions
            assert ab.insertions == ba.deletions
            assert ab.deletions == ba.insertions

    def test_self_wer_is_zero_property(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            s = random_sentence(rng)
            assert wer(s, s).wer == 0.0

    def test_normalization(self):
        assert wer("Hello, World!", "hello world").wer == 0.0
        assert normalize_words("The  CAT. sat?") == ["the", "cat", "sat"]

    def test_empty_reference_raises(self):
        with pytest.raises(ValueError, match="empty"):
            wer("?!", "something")

    def test_wer_can_exceed_one(self):
        assert wer("a", "x y z").wer > 1.0


def test_breakdowns_sum_field_by_field():
    a, b = wer("the cat sat", "a cat sat down"), wer("one two", "one")
    total = sum([a, b], WerBreakdown())
    assert total == WerBreakdown(a.substitutions + b.substitutions, a.deletions + b.deletions,
                                 a.insertions + b.insertions, 5)
    assert total.wer == pytest.approx((a.errors + b.errors) / 5)


class TestBleu:
    def test_perfect_corpus(self):
        refs = ["the cat sleeps on the mat here now", "a dog runs in the old park today"]
        assert bleu(refs, list(refs)) == pytest.approx(100.0)

    def test_zero_unigram_overlap(self):
        assert bleu(["the cat sleeps"], ["wildly unrelated words"]) == 0.0

    def test_matches_bundled_reference_on_toy_corpus(self):
        got = bleu(TOY_REFERENCES, TOY_HYPOTHESES)
        want = reference_bleu(TOY_REFERENCES, TOY_HYPOTHESES)
        assert got == pytest.approx(want, abs=1e-9)

    def test_matches_reference_on_random_corpora(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            refs = [random_sentence(rng, 4, 10) for _ in range(n)]
            hyps = [random_sentence(rng, 1, 10) for _ in range(n)]
            assert bleu(refs, hyps) == pytest.approx(reference_bleu(refs, hyps), abs=1e-9)

    def test_bounded(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            refs = [random_sentence(rng, 4, 9)]
            hyps = [random_sentence(rng, 1, 9)]
            assert 0.0 <= bleu(refs, hyps) <= 100.0

    def test_appending_perfect_pair_keeps_perfect_corpus(self):
        refs = ["the old mill turns the wheel all day long"]
        hyps = list(refs)
        before = bleu(refs, hyps)
        refs.append("a warm lamp lights the long hall at dusk")
        hyps.append(refs[-1])
        assert bleu(refs, hyps) >= before - 1e-12

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="references vs"):
            bleu(["a"], ["a", "b"])

    def test_brevity_penalty_applies(self):
        full = bleu(["the cat sleeps on the mat"], ["the cat sleeps on the mat"])
        short = bleu(["the cat sleeps on the mat"], ["the cat sleeps"])
        assert short < full


def make_samples(registry):
    t = registry.get("asr")
    u = registry.get("ocr")
    return [
        CorrectionSample(t, ("the cat sat on a met", "the cat sat on the mat"), "the cat sat on the mat", 1),
        CorrectionSample(t, ("a dug runs in the park",), "a dog runs in the park", 2),
        CorrectionSample(u, ("the o1d mill turns",), "the old mill turns", 3),
        CorrectionSample(u, ("warm lamp in the hal1",), "warm lamp in the hall", 4),
    ]


class TestEvaluate:
    @pytest.fixture
    def registry(self):
        return TaskRegistry(["asr", "ocr"])

    def test_identity_corrector_equals_baseline(self, registry):
        report = evaluate(make_samples(registry), corrector=lambda s: s.hypotheses[0])
        assert report.overall.corrected_wer == pytest.approx(report.overall.baseline_wer)
        for score in report.per_task.values():
            assert score.corrected_wer == pytest.approx(score.baseline_wer)

    def test_oracle_corrector_reaches_zero(self, registry):
        report = evaluate(make_samples(registry), corrector=lambda s: s.target)
        assert report.overall.corrected_wer == 0.0
        assert report.overall.relative_reduction == pytest.approx(1.0)

    def test_corpus_wer_is_count_aggregated(self, registry):
        samples = make_samples(registry)
        report = evaluate(samples, corrector=lambda s: s.hypotheses[0])
        errors = refs = 0
        for s in samples:
            b = wer(s.target, s.hypotheses[0])
            errors += b.errors
            refs += b.reference_words
        assert report.overall.baseline_wer == pytest.approx(errors / refs)

    def test_aggregation_is_merge_associative(self, registry):
        samples = make_samples(registry)
        whole = evaluate(samples, corrector=lambda s: s.hypotheses[0]).overall
        # merging split halves by error/reference counts must equal the whole
        counts = []
        for subset in (samples[:2], samples[2:]):
            e = sum(wer(s.target, s.hypotheses[0]).errors for s in subset)
            n = sum(wer(s.target, s.hypotheses[0]).reference_words for s in subset)
            counts.append((e, n))
        merged = sum(e for e, _ in counts) / sum(n for _, n in counts)
        assert whole.baseline_wer == pytest.approx(merged)

    def test_bleu_pair_optional(self, registry):
        report = evaluate(make_samples(registry), corrector=lambda s: s.target, compute_bleu=True)
        assert report.overall.corrected_bleu == pytest.approx(100.0)
        assert report.overall.baseline_bleu < 100.0
        plain = evaluate(make_samples(registry), corrector=lambda s: s.target)
        assert plain.overall.corrected_bleu is None

    def test_csv_and_table_render(self, registry):
        report = evaluate(make_samples(registry), corrector=lambda s: s.target)
        csv = report.to_csv()
        assert csv.splitlines()[0].startswith("task,n_samples,baseline_wer")
        assert len(csv.strip().splitlines()) == 1 + 2 + 1  # header, two tasks, overall
        assert "overall" in report.to_table()

    def test_csv_is_pinned(self, registry):
        report = evaluate(make_samples(registry), corrector=lambda s: s.hypotheses[-1],
                          compute_bleu=True)
        assert report.to_csv() == (
            "task,n_samples,baseline_wer,corrected_wer,relative_reduction_pct,baseline_bleu,corrected_bleu\n"
            "asr,2,0.2500,0.0833,66.67,52.33,77.82\n"
            "ocr,2,0.2222,0.2222,0.00,49.34,49.34\n"
            "overall,4,0.2381,0.1429,40.00,51.24,67.44\n"
        )

    def test_table_shows_bleu_only_when_computed(self, registry):
        samples = make_samples(registry)
        plain = evaluate(samples, corrector=lambda s: s.hypotheses[-1]).to_table()
        assert plain == (
            "task           n  base WER  corr WER  rel red %\n"
            "-----------------------------------------------\n"
            "asr            2    0.2500    0.0833       66.7\n"
            "ocr            2    0.2222    0.2222        0.0\n"
            "overall        4    0.2381    0.1429       40.0"
        )
        with_bleu = evaluate(samples, corrector=lambda s: s.hypotheses[-1],
                             compute_bleu=True).to_table().splitlines()
        assert with_bleu[0] == plain.splitlines()[0] + "  base BLEU  corr BLEU"
        assert with_bleu[-1] == plain.splitlines()[-1] + "      51.24      67.44"

    def test_empty_samples_raise(self):
        with pytest.raises(ValueError, match="no samples"):
            evaluate([], corrector=lambda s: s.target)
