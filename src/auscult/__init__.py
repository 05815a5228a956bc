"""Edge-deployable auscultation inference engine.

Submodules group the pipeline stages: `frontend` (log-mel DSP), `nn`
(layers with hand-derived backward passes), `model` (the encoder/decoder
architecture and its presets), `training` (focal-loss SGD), `emr`
(tabular analytics: clustering, SMOTE, boosted trees), `fusion`
(challenge metrics and probability fusion), `data` (WAV and annotation
io), `textio` (UTF-8 reads and the CSV dialect), `stream` (ring buffer and
live sessions), and `cli`.
"""

from .errors import (
    AuscultError,
    DataError,
    FormatError,
    InvalidInputError,
    NonFiniteError,
    NotReadyError,
    ParseError,
    ProducerError,
    StaleWindowError,
    TooShortError,
    TrainingDivergedError,
    UndefinedCorrelationError,
)
from .frontend import AudioSignal, FrontendConfig, log_mel_spectrogram, mfcc
from .fusion import ProbabilityVector, compute_metrics, fuse_probabilities
from .model import ReneConfig, init_rene, preset_config, rene_forward
from .stream import RingBuffer, SessionConfig, replay_offline, run_session
from .training import TrainConfig, train_toy

__version__ = "0.1.0"

__all__ = [
    "AudioSignal",
    "AuscultError",
    "DataError",
    "FormatError",
    "FrontendConfig",
    "InvalidInputError",
    "NonFiniteError",
    "NotReadyError",
    "ParseError",
    "ProbabilityVector",
    "ProducerError",
    "ReneConfig",
    "RingBuffer",
    "SessionConfig",
    "StaleWindowError",
    "TooShortError",
    "TrainConfig",
    "TrainingDivergedError",
    "UndefinedCorrelationError",
    "compute_metrics",
    "fuse_probabilities",
    "init_rene",
    "log_mel_spectrogram",
    "mfcc",
    "preset_config",
    "rene_forward",
    "replay_offline",
    "run_session",
    "train_toy",
    "__version__",
]
