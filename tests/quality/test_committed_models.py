"""The quality models ``build_context`` loads are committed inputs.

They must equal what the trainer produces today, array for array and bit
for bit (``scripts/regen_quality_models.py --check`` is the same
comparison), and building the default or the quick context must train
nothing.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.emulation import build_context, context
from repro.emulation.context import QUICK_CONTEXT, model_file
from repro.quality import DNNQualityModel

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "regen_quality_models.py"


def _regen():
    spec = importlib.util.spec_from_file_location("regen_quality_models", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["default", "quick"])
def test_committed_model_equals_a_fresh_retrain(name):
    regen = _regen()
    shape = regen.MODELS[name]
    assert regen.differences(regen.retrain(*shape), model_file(*shape)) == []


def test_a_changed_array_is_named(tmp_path):
    regen = _regen()
    shape = regen.MODELS["quick"]
    model = DNNQualityModel.load(model_file(*shape))
    model._params[3] = model._params[3] + 1e-12
    changed = tmp_path / "changed.npz"
    model.save(changed)
    assert regen.differences(model_file(*shape).read_bytes(), changed) == ["param_3"]


@pytest.mark.parametrize("kwargs", [{}, QUICK_CONTEXT], ids=["default", "quick"])
def test_committed_contexts_train_nothing(monkeypatch, kwargs):
    def refuse(*args, **kw):
        raise AssertionError("build_context trained a committed model")

    monkeypatch.setattr(context, "generate_dataset", refuse)
    monkeypatch.setattr(DNNQualityModel, "fit", refuse)
    assert build_context(**kwargs).dnn.is_fitted
