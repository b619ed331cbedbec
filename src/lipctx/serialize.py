"""JSON wire formats for measures, layers, models, and reports.

Schemas
-------
measure      {"points": [[...], ...], "weights": [...]}   (weights optional)
matrix       {"rows": r, "cols": c, "data": [row-major floats]}
mlp layer    {"kind": "mlp", "W": matrix, "b": [...], "tau": t}
attention    {"kind": "attention", "A": matrix, "eta": e,
              "domain": {"center": [...], "radius": r}}
model        {"format": "lipctx-model-v1", "lifting": {"A": matrix, "b": [...]},
              "blocks": [{"attention": ..., "mlp": ...}, ...],
              "readout": [...], "input_domain": {...}, "lipschitz_c": c}
cert report  {"format": "lipctx-cert-v1", "model_hash": ...,
              "checks": [{"name", "stat", "bound", "pass", "n", "seed"}],
              "witness": ...}

Writers emit every float with 17 significant digits, which round-trips
IEEE doubles losslessly; readers accept integer and float literals.
Layers are reconstructed without re-clamping, as every layer is: a
constructor stores its step as given and recomputes the certified norm
or ``sup_ay`` from the stored fields. So a save/load cycle reproduces
bit-identical evaluations and certificates, for unclamped models too.
A negative step fails to load with ``InvalidMeasureError``.
"""
from __future__ import annotations

import hashlib
import json

import numpy as np

from .certify import CertReport, CheckResult
from .errors import LipctxError
from .layers import AttentionLayer, MlpLayer
from .measure import DomainBall, EmpiricalMeasure, new_empirical
from .transformer import Lifting, ScalarModel

MODEL_FORMAT = "lipctx-model-v1"
REPORT_FORMAT = "lipctx-cert-v1"


class FormatError(LipctxError):
    """Input JSON does not match the expected schema."""


# ---------------------------------------------------------------------------
# 17-significant-digit JSON writer
# ---------------------------------------------------------------------------
def _fmt_float(x: float) -> str:
    if not np.isfinite(x):
        raise FormatError("cannot serialize non-finite float")
    return format(float(x), ".17g")


def dumps(obj) -> str:
    """JSON text with floats at 17 significant digits (lossless doubles)."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [dumps(v) for v in obj]
        return "[" + ", ".join(items) + "]"
    if isinstance(obj, dict):
        items = [f"{json.dumps(str(k))}: {dumps(v)}" for k, v in obj.items()]
        return "{" + ", ".join(items) + "}"
    raise FormatError(f"cannot serialize object of type {type(obj).__name__}")


def dump_file(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
        fh.write("\n")


def load_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Component encoders/decoders
# ---------------------------------------------------------------------------
def matrix_to_json(m: np.ndarray) -> dict:
    m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    return {"rows": m.shape[0], "cols": m.shape[1], "data": m.ravel().tolist()}


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        data = np.asarray(obj["data"], dtype=np.float64)
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad matrix object: {exc}") from exc
    if data.size != rows * cols:
        raise FormatError(
            f"matrix data length {data.size} for {rows}x{cols} shape"
        )
    return data.reshape(rows, cols)


def measure_to_json(mu: EmpiricalMeasure) -> dict:
    return {"points": mu.points.tolist(), "weights": mu.weights.tolist()}


def measure_from_json(obj: dict) -> EmpiricalMeasure:
    if "points" not in obj:
        raise FormatError("measure JSON needs a 'points' field")
    return new_empirical(obj["points"], obj.get("weights"))


def ball_to_json(ball: DomainBall) -> dict:
    return {"center": ball.center.tolist(), "radius": ball.radius}


def ball_from_json(obj: dict) -> DomainBall:
    try:
        return DomainBall(np.asarray(obj["center"], dtype=np.float64), float(obj["radius"]))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad domain ball: {exc}") from exc


def layer_to_json(layer) -> dict:
    if isinstance(layer, MlpLayer):
        return {
            "kind": "mlp",
            "W": matrix_to_json(layer.W),
            "b": layer.b.tolist(),
            "tau": layer.tau,
        }
    if isinstance(layer, AttentionLayer):
        return {
            "kind": "attention",
            "A": matrix_to_json(layer.A),
            "eta": layer.eta,
            "domain": ball_to_json(layer.domain),
        }
    raise FormatError(f"not a layer: {type(layer).__name__}")


def layer_from_json(obj: dict):
    kind = obj.get("kind")
    if kind == "mlp":
        return MlpLayer(
            matrix_from_json(obj["W"]),
            np.asarray(obj["b"], dtype=np.float64),
            float(obj["tau"]),
        )
    if kind == "attention":
        return AttentionLayer(
            matrix_from_json(obj["A"]),
            float(obj["eta"]),
            ball_from_json(obj["domain"]),
        )
    raise FormatError(f"unknown layer kind {kind!r}")


def model_to_json(model: ScalarModel) -> dict:
    return {
        "format": MODEL_FORMAT,
        "lifting": {"A": matrix_to_json(model.lifting.A), "b": model.lifting.b.tolist()},
        "blocks": [
            {"attention": layer_to_json(attn), "mlp": layer_to_json(mlp)}
            for attn, mlp in model.blocks
        ],
        "readout": model.readout.tolist(),
        "input_domain": ball_to_json(model.input_domain),
        "lipschitz_c": model.lipschitz_c,
    }


def model_from_json(obj: dict) -> ScalarModel:
    if obj.get("format") != MODEL_FORMAT:
        raise FormatError(
            f"expected format {MODEL_FORMAT!r}, got {obj.get('format')!r}"
        )
    try:
        lifting = Lifting(
            matrix_from_json(obj["lifting"]["A"]),
            np.asarray(obj["lifting"]["b"], dtype=np.float64),
        )
        blocks = tuple(
            (layer_from_json(blk["attention"]), layer_from_json(blk["mlp"]))
            for blk in obj["blocks"]
        )
        return ScalarModel(
            lifting,
            blocks,
            np.asarray(obj["readout"], dtype=np.float64),
            ball_from_json(obj["input_domain"]),
            float(obj["lipschitz_c"]),
        )
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad model JSON: {exc}") from exc


def model_hash(model: ScalarModel) -> str:
    """Content digest of the canonical model serialization."""
    return hashlib.sha256(dumps(model_to_json(model)).encode("utf-8")).hexdigest()


def report_to_json(report: CertReport) -> dict:
    return {
        "format": REPORT_FORMAT,
        "model_hash": report.model_hash,
        "checks": [
            {
                "name": c.name,
                "stat": c.stat,
                "bound": c.bound,
                "pass": c.passed,
                "n": c.n,
                "seed": c.seed,
            }
            for c in report.checks
        ],
        "witness": report.witness,
    }


def report_from_json(obj: dict) -> CertReport:
    if obj.get("format") != REPORT_FORMAT:
        raise FormatError(
            f"expected format {REPORT_FORMAT!r}, got {obj.get('format')!r}"
        )
    checks = tuple(
        CheckResult(
            str(c["name"]),
            float(c["stat"]),
            float(c["bound"]),
            bool(c["pass"]),
            int(c["n"]),
            int(c["seed"]),
        )
        for c in obj["checks"]
    )
    return CertReport(str(obj["model_hash"]), checks, obj.get("witness"))
