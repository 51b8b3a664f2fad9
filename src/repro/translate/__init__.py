"""Source-to-source directive translation through the neutral IR.

One model's port, rewritten for another model and certified: the
directive IR (:mod:`repro.directives`) detaches the annotations from
any spelling, :func:`translate_port` re-lowers them under the target's
capability set, the target's own pipeline compiles the result, and the
translation-validation layer (:mod:`repro.tv`) plus the data-motion
soundness check certify every region of the outcome against the
original source program.
"""

from repro.translate.rewrite import (MotionWitness, motion_certificates,
                                     translate_port)
from repro.translate.suite import (TRANSLATE, TRANSLATION_PAIRS,
                                   TranslationRecord, translate_pair)

__all__ = [
    "MotionWitness", "motion_certificates", "translate_port",
    "TRANSLATE", "TRANSLATION_PAIRS", "TranslationRecord",
    "translate_pair",
]
