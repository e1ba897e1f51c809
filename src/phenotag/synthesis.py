"""Deterministic synthetic corpus generation.

Documents are built from label-specific sentence templates (TEMPLATES), each
carrying one entity phrase from the label's PHRASES, with FILLERS sentences in
between. Label frequencies follow WEIGHTS (a realistically imbalanced
annotated corpus), phrases are drawn through a shuffle bag so every phrase
appears once before any repeats, and everything is a pure function of
(seed, n_docs).
"""

from __future__ import annotations

import random
from typing import Sequence

from .corpus import Document, EntityLabel, EntitySpan, LABELS
from .errors import ConfigurationError

_L = EntityLabel

PHRASES: dict[EntityLabel, tuple[str, ...]] = {
    _L.HORMONE_RECEPTOR_TYPE: (
        "her2", "estrogen receptor", "progesterone receptor", "er", "pr", "her-2",
    ),
    _L.HORMONE_RECEPTOR_STATUS: (
        "positive", "negative", "equivocal", "amplified", "nonamplified",
        "er-positive", "er-negative", "receptor-positive", "weakly positive",
    ),
    _L.TUMOR_SIZE: (
        "1.0 x 0.5 x 0.7 cm", "2 cm in length and 1 cm in width", "1.5 cm",
        "0.8 cm", "2.3 x 1.1 cm", "8 mm", "12 mm", "3.5 cm in diameter",
    ),
    _L.TUMOR_SITE: (
        "12 o'clock position", "upper outer quadrant", "2 cm from the nipple",
        "subareolar region", "upper inner quadrant", "6 o'clock position",
        "lower inner quadrant", "retroareolar region",
    ),
    _L.CANCER_GRADE: (
        "1 of 3", "2 of 3", "3 of 3", "nottingham grade 2", "grade 1", "grade 3",
    ),
    _L.HISTOLOGICAL_TYPE: (
        "ductal carcinoma in situ", "dcis", "lcis", "lobular carcinoma in situ",
        "invasive ductal carcinoma", "invasive lobular carcinoma",
        "adenocarcinoma", "metaplastic carcinoma",
    ),
    _L.CANCER_LATERALITY: (
        "left", "right", "bilateral", "left-sided", "right-sided", "b-left",
    ),
    _L.CANCER_STAGE: (
        "pt4 nx mx", "ptis", "pt1c n0 m0", "t1c", "n2a", "pn1a", "stage iia",
        "mx", "pt2 n1 mx",
    ),
}

TEMPLATES: dict[EntityLabel, tuple[str, ...]] = {
    _L.HORMONE_RECEPTOR_TYPE: (
        "immunohistochemistry was performed for {} on the specimen.",
        "the {} gene was tested.",
        "fish assay for {} was obtained.",
        "staining for {} was reviewed.",
    ),
    _L.HORMONE_RECEPTOR_STATUS: (
        "the receptor result was {} overall.",
        "staining intensity was {} on review.",
        "the assay returned {} findings.",
        "hormone receptor testing was {} in this sample.",
    ),
    _L.TUMOR_SIZE: (
        "tumor size: {}.",
        "the mass measures {} grossly.",
        "the lesion spans {} in the specimen.",
        "gross measurement shows a tumor of {}.",
    ),
    _L.TUMOR_SITE: (
        "the tumor is located at the {}.",
        "a mass was palpated in the {}.",
        "biopsy was obtained from the {}.",
        "the lesion lies in the {} of the breast.",
    ),
    _L.CANCER_GRADE: (
        "histologic grade: {}.",
        "the tumor was assigned {}.",
        "grading review recorded {}.",
    ),
    _L.HISTOLOGICAL_TYPE: (
        "histologic type: {}.",
        "sections show {}.",
        "pathology was consistent with {}.",
        "final diagnosis: {}.",
    ),
    _L.CANCER_LATERALITY: (
        "specimen laterality: {}.",
        "the procedure was performed on the {} side.",
        "laterality was recorded as {}.",
        "imaging of the {} breast was reviewed.",
    ),
    _L.CANCER_STAGE: (
        "pathologic stage: {}.",
        "tnm staging was reported as {}.",
        "the stage was recorded as {}.",
        "staging workup concluded {}.",
    ),
}

# Relative label frequencies, following the mention counts of a
# realistically imbalanced annotated corpus.
WEIGHTS: dict[EntityLabel, float] = {
    _L.HORMONE_RECEPTOR_TYPE: 1673.0,
    _L.HORMONE_RECEPTOR_STATUS: 436.0,
    _L.TUMOR_SIZE: 540.0,
    _L.TUMOR_SITE: 329.0,
    _L.CANCER_GRADE: 271.0,
    _L.HISTOLOGICAL_TYPE: 1070.0,
    _L.CANCER_LATERALITY: 1192.0,
    _L.CANCER_STAGE: 173.0,
}

FILLERS = (
    "the patient was seen in clinic today.",
    "she reported no acute distress.",
    "follow up was planned in six weeks.",
    "prior records were reviewed.",
    "the case was discussed at conference.",
    "vital signs were stable.",
)


class _ShuffleBag:
    """Draws items in table order first, then reshuffled full passes."""

    def __init__(self, items: Sequence[str], rng: random.Random) -> None:
        self._items = list(items)
        self._rng = rng
        self._queue = list(items)

    def draw(self) -> str:
        if not self._queue:
            self._queue = list(self._items)
            self._rng.shuffle(self._queue)
        return self._queue.pop(0)


def _allocate_labels(total: int) -> list[EntityLabel]:
    """Largest-remainder allocation of `total` slots proportional to WEIGHTS."""
    wsum = sum(WEIGHTS[label] for label in LABELS)
    exact = {label: total * WEIGHTS[label] / wsum for label in LABELS}
    counts = {label: int(exact[label]) for label in LABELS}
    leftover = total - sum(counts.values())
    by_remainder = sorted(
        LABELS, key=lambda l: (-(exact[l] - counts[l]), l.value)
    )
    for label in by_remainder[:leftover]:
        counts[label] += 1
    out: list[EntityLabel] = []
    for label in LABELS:
        out.extend([label] * counts[label])
    return out


def generate_synthetic(seed: int, n_docs: int) -> list[Document]:
    """Generate an annotated corpus deterministically from a seed.

    Every document carries gold spans whose text slice equals the inserted
    phrase, and the corpus-wide label histogram tracks WEIGHTS
    (largest-remainder allocation, then shuffled assignment to sentences).
    """
    if n_docs < 0:
        raise ConfigurationError(f"n_docs must be non-negative, got {n_docs}")
    rng = random.Random(seed)
    sentences_per_doc = [rng.randint(3, 6) for _ in range(n_docs)]
    labels = _allocate_labels(sum(sentences_per_doc))
    rng.shuffle(labels)
    bags = {label: _ShuffleBag(PHRASES[label], rng) for label in LABELS}

    docs: list[Document] = []
    cursor = 0
    for d in range(n_docs):
        parts: list[str] = []
        entities: list[EntitySpan] = []
        offset = 0
        for _ in range(sentences_per_doc[d]):
            if rng.random() < 0.2:
                filler = rng.choice(FILLERS)
                parts.append(filler)
                offset += len(filler) + 1
            label = labels[cursor]
            cursor += 1
            phrase = bags[label].draw()
            template = rng.choice(TEMPLATES[label])
            sentence = template.format(phrase)
            start = offset + template.index("{}")
            entities.append(EntitySpan(start, start + len(phrase), label))
            parts.append(sentence)
            offset += len(sentence) + 1
        docs.append(Document(f"synth-{d:04d}", " ".join(parts), entities))
    return docs
