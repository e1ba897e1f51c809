from collections import Counter

import pytest

from phenotag.corpus import LABELS
from phenotag.errors import ConfigurationError
from phenotag.synthesis import PHRASES, TEMPLATES, WEIGHTS, generate_synthetic


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        a = generate_synthetic(1, 10)
        b = generate_synthetic(1, 10)
        assert a == b

    def test_different_seed_differs(self):
        assert generate_synthetic(1, 10) != generate_synthetic(2, 10)


class TestGoldSpans:
    def test_span_slices_match_phrases(self, corpus200):
        for doc in corpus200:
            for span in doc.entities:
                assert doc.span_text(span) in PHRASES[span.label]

    def test_every_label_present_at_scale(self, corpus200):
        seen = {s.label for d in corpus200 for s in d.entities}
        assert seen == set(LABELS)

    def test_oov_terms_present(self, corpus200):
        text = " ".join(d.text for d in corpus200)
        for term in ("her2", "dcis", "pt4"):
            assert term in text


class TestHistogram:
    def test_within_20pct_of_weights(self, corpus200):
        hist = Counter(s.label for d in corpus200 for s in d.entities)
        total = sum(hist.values())
        wsum = sum(WEIGHTS.values())
        for label in LABELS:
            expected = total * WEIGHTS[label] / wsum
            assert abs(hist[label] - expected) <= 0.2 * expected, label


class TestInventoryValidation:
    def test_shipped_tables_cover_every_label(self):
        for label in LABELS:
            assert PHRASES[label] and TEMPLATES[label], label
            assert WEIGHTS[label] > 0.0, label
            for template in TEMPLATES[label]:
                assert template.count("{}") == 1, template

    def test_negative_docs_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_synthetic(1, -3)

    def test_zero_docs(self):
        assert generate_synthetic(1, 0) == []
