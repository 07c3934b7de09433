"""Regenerate, or check, the committed quality models.

``build_context`` loads the DNN quality model of the default context
(288x512, 300 epochs) and of the quick context (144x256, 60 epochs) from
``src/repro/quality/dnn_<h>x<w>_e<epochs>.npz`` instead of training it.
Retrain and rewrite both after a change to anything the model depends on
(``generate_dataset``, ``JigsawCodec``, SSIM or the trainer)::

    PYTHONPATH=src python scripts/regen_quality_models.py

With ``--check`` nothing is written: each model is retrained in memory and
the run fails unless every array and the metadata equal the committed
file bit for bit (a host whose BLAS rounds differently fails here)::

    PYTHONPATH=src python scripts/regen_quality_models.py --check
"""

from __future__ import annotations

import argparse
import io
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.emulation.context import (  # noqa: E402
    QUICK_CONTEXT,
    model_file,
    train_context_dnn,
)
from repro.video.synthetic import make_standard_videos  # noqa: E402

#: The committed models: name -> (height, width, dnn_epochs).
MODELS = {
    "default": (288, 512, 300),
    "quick": (
        QUICK_CONTEXT["height"], QUICK_CONTEXT["width"], QUICK_CONTEXT["dnn_epochs"]
    ),
}


def retrain(height: int, width: int, dnn_epochs: int) -> bytes:
    """The ``.npz`` bytes of a freshly trained model."""
    videos = make_standard_videos(height=height, width=width, num_frames=16, seed=7)
    buffer = io.BytesIO()
    train_context_dnn(videos, dnn_epochs).save(buffer)
    return buffer.getvalue()


def differences(fresh: bytes, committed: Path) -> list:
    """Names of the arrays (``meta`` included) in which two models differ."""
    with np.load(io.BytesIO(fresh)) as a, np.load(committed) as b:
        names = sorted(set(a.files) | set(b.files))
        return [
            name for name in names
            if name not in a.files or name not in b.files
            or a[name].dtype != b[name].dtype
            or a[name].shape != b[name].shape
            or a[name].tobytes() != b[name].tobytes()
        ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--check", action="store_true",
        help="retrain in memory and compare with the committed files",
    )
    args = parser.parse_args(argv)
    failed = False
    for name, shape in MODELS.items():
        path = model_file(*shape)
        fresh = retrain(*shape)
        if not args.check:
            path.write_bytes(fresh)
            print(f"{name:8} written  {path.relative_to(REPO_ROOT)}")
            continue
        diff = differences(fresh, path)
        failed = failed or bool(diff)
        print(f"{name:8} {'DIFFERS in ' + ', '.join(diff) if diff else 'matches'}"
              f"  {path.relative_to(REPO_ROOT)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
