"""hebdot: learn and apply Hebrew diacritics, character by character.

The pieces, bottom up: :mod:`hebdot.codec` turns text into letters and
label arrays and back, :mod:`hebdot.corpus` loads and chunks training
data, :mod:`hebdot.network` holds the numpy BiLSTM with its gradients and
checkpoints, :mod:`hebdot.trainer` runs the optimization,
:mod:`hebdot.dotter` dots new text with a trained model, and
:mod:`hebdot.metrics` scores the result.  ``hebdot.cli`` fronts it all on
the command line.
"""

from .codec import Dagesh, Niqqud, Sin, parse, strip_diacritics
from .corpus import Document, Vocabulary, load_corpus
from .dotter import Dotter
from .metrics import evaluate
from .network import ModelConfig, load_checkpoint, save_checkpoint
from .trainer import TrainPlan, overfit_probe, train

__version__ = "0.1.0"

__all__ = [
    "Dagesh",
    "Niqqud",
    "Sin",
    "parse",
    "strip_diacritics",
    "Document",
    "Vocabulary",
    "load_corpus",
    "Dotter",
    "evaluate",
    "ModelConfig",
    "load_checkpoint",
    "save_checkpoint",
    "TrainPlan",
    "overfit_probe",
    "train",
    "__version__",
]
