"""Video quality models (paper Sec 2.3, Table 1, Fig 1).

Maps the amount of data received at each layer (plus per-frame features) to a
video quality metric (SSIM by default; the methodology also supports PSNR).
Three models are provided, mirroring Table 1: linear regression, an
epsilon-insensitive SVR, and the paper's 5-layer sigmoid DNN trained with
Adam — all implemented from scratch on numpy.
"""

from .dnn import DNNQualityModel
from .linear import LinearRegressionModel
from .svm import SVRModel
from .model import (
    QualityModel,
    TrainedQualityModels,
    train_quality_models,
    train_default_dnn,
)
from .curves import FrameFeatureContext

__all__ = [
    "QualityModel",
    "LinearRegressionModel",
    "SVRModel",
    "DNNQualityModel",
    "TrainedQualityModels",
    "train_quality_models",
    "train_default_dnn",
    "FrameFeatureContext",
]
