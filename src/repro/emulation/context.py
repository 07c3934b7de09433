"""Shared experiment state and placement->trace plumbing.

Builds the heavyweight shared state once (the DNN quality model plus
encoded reference-frame probes) so every runner and sweep works from the
same :class:`ExperimentContext`, and turns placement specs into CSI traces.

The quality model is an instrument trained once, offline (paper Sec 2.3):
the models of the default and the quick context are committed beside
:mod:`repro.quality.dnn` and loaded; any other resolution or epoch count
is trained in memory and written nowhere.  A model depends only on
``(height, width, dnn_epochs)``; ``scripts/regen_quality_models.py``
regenerates the committed ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from ..baselines import FreezeModel, RateQualityModel
from ..core import SystemConfig
from ..errors import EmulationError
from ..phy.csi import CsiTrace
from ..quality.dnn import DNNQualityModel
from ..quality.model import train_default_dnn
from ..types import Richness
from ..video.dataset import FrameQualityProbe, generate_dataset
from ..video.jigsaw import JigsawCodec
from ..video.synthetic import SyntheticVideo, make_standard_videos
from .scenario import EmulationScenario

#: Default number of random runs per configuration (paper: 10 testbed /
#: 100 emulation; kept small for tractable CI; callers pass ``runs=``).
DEFAULT_RUNS = 3

#: Default frames streamed per run (paper streams minutes; the per-frame
#: metric converges within a dozen frames under static channels).
DEFAULT_FRAMES = 9


@dataclass
class ExperimentContext:
    """Heavyweight shared state for all experiments."""

    height: int
    width: int
    dnn: DNNQualityModel
    videos: List[SyntheticVideo]
    probes: List[FrameQualityProbe]
    scenario: EmulationScenario
    base_config: SystemConfig
    _freeze: Optional[FreezeModel] = field(default=None, repr=False)

    @property
    def hr_video(self) -> SyntheticVideo:
        """The high-richness video the default experiments stream."""
        return self.videos[0]

    def freeze_model(self) -> FreezeModel:
        """Lazily built temporal-decay model for the ABR baselines."""
        if self._freeze is None:
            self._freeze = FreezeModel.from_video(self.hr_video)
        return self._freeze

    def rate_quality(self) -> RateQualityModel:
        """Rate-quality model of the DASH encodings at this resolution."""
        return RateQualityModel(
            richness=Richness.HIGH,
            pixels_per_frame=self.height * self.width,
            fps=self.base_config.fps,
        )

    def config(self, **overrides) -> SystemConfig:
        """A copy of the base config with overrides applied."""
        return replace(self.base_config, **overrides)


#: The small context of CI-sized runs (``--quick-context``): 144x256, a
#: 60-epoch model (committed too) and two probes.
QUICK_CONTEXT = {"height": 144, "width": 256, "dnn_epochs": 60, "probe_frames": 2}


def model_file(height: int, width: int, dnn_epochs: int) -> Path:
    """The committed model of one ``(height, width, dnn_epochs)``, beside
    ``repro.quality.dnn``; only the default and quick shapes exist."""
    quality = Path(__file__).resolve().parents[1] / "quality"
    return quality / f"dnn_{height}x{width}_e{dnn_epochs}.npz"


def train_context_dnn(
    videos: List[SyntheticVideo], dnn_epochs: int
) -> DNNQualityModel:
    """Train the context's quality model from scratch, seed 0 throughout."""
    dataset = generate_dataset(
        videos, frames_per_video=3, samples_per_frame=24, seed=0
    )
    return train_default_dnn(dataset, epochs=dnn_epochs)


def build_context(
    height: int = 288,
    width: int = 512,
    dnn_epochs: int = 300,
    probe_frames: int = 4,
    seed: int = 0,
) -> ExperimentContext:
    """Build the shared experiment context; ``seed`` seeds the scenario."""
    videos = make_standard_videos(height=height, width=width, num_frames=16, seed=7)
    path = model_file(height, width, dnn_epochs)
    dnn = (
        DNNQualityModel.load(path)
        if path.exists()
        else train_context_dnn(videos, dnn_epochs)
    )
    codec = JigsawCodec(height, width)
    # The paper evaluates on 2 HR + 2 LR sequences and reports the average;
    # we cycle probes drawn from one HR and one LR video.
    probes = []
    for video in (videos[0], videos[3]):
        indices = np.unique(
            np.linspace(0, video.num_frames - 1, max(1, probe_frames // 2)).astype(int)
        )
        probes.extend(
            FrameQualityProbe.from_frame(codec, video.frame(int(i)))
            for i in indices
        )
    return ExperimentContext(
        height=height,
        width=width,
        dnn=dnn,
        videos=videos,
        probes=probes,
        scenario=EmulationScenario(seed=seed),
        base_config=SystemConfig(height=height, width=width),
    )


def trace_for_placement(
    ctx: ExperimentContext,
    num_users: int,
    placement: Tuple,
    run_seed: int,
    num_aps: int = 1,
) -> CsiTrace:
    """Build a static trace for an ('arc', d, mas) or ('range', d0, d1, mas)
    placement spec.

    With ``num_aps > 1`` the trace carries per-AP channels for every AP of
    the room's default topology; AP0's sub-trace is bit-identical to the
    ``num_aps=1`` trace, so one superset trace can serve both the 1-AP and
    multi-AP arms of a comparison.
    """
    kind = placement[0]
    if kind == "arc":
        _, distance, mas = placement
        positions = ctx.scenario.place_arc(num_users, distance, mas, seed=run_seed)
    elif kind == "range":
        _, dmin, dmax, mas = placement
        positions = ctx.scenario.place_random_range(
            num_users, dmin, dmax, mas, seed=run_seed
        )
    else:
        raise EmulationError(f"unknown placement kind {kind!r}")
    return ctx.scenario.static_trace(
        positions, duration_s=1.0, seed=run_seed + 1, num_aps=num_aps
    )
