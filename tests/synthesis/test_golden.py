"""Golden serializations: synthesized experiments written byte for byte.

The sha256 digests below pin the JSON, CSV and Extra-P text files written
for ``synthesize_experiment`` outputs at m = 1, 2 and 3 under every
registered noise spec, for a hand-built kernel that merges repeated
coordinates with mixed repetition counts, and for one service response.
They were recorded before measurements were stored as arrays; how a kernel
holds its measurements and how synthesis draws them must not move a byte
of what is written or served.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.experiment.experiment import Experiment
from repro.experiment.io import save_csv, save_json, save_text, to_json_dict
from repro.noise.injection import UniformNoise
from repro.pmnf.parser import parse_function
from repro.synthesis.measurements import synthesize_experiment
from tests.synthesis.registry_models import registered_noise_models

SEED = 20211
FUNCTIONS = {
    1: "3 + 0.5 * x1^(3/2) * log2(x1)",
    2: "2 + 0.1 * x1 * log2(x2)",
    3: "1 + 0.01 * x1^2 * x2 + 0.5 * x3^(1/2)",
}
VALUE_SETS = [
    np.array([4.0, 8.0, 16.0, 32.0, 64.0]),
    np.array([10.0, 20.0, 30.0, 40.0, 50.0]),
    np.array([3.0, 6.0, 9.0, 12.0, 15.0]),
]
SAVERS = {"json": save_json, "csv": save_csv, "text": save_text}

#: Per registered spec: digests of the (json, csv, text) files, each over
#: the m = 1, 2, 3 experiments written one after the other.
SPEC_DIGESTS = {
    "DriftNoise": (
        "e922ef76442943ce0a611639c8eb343e9fd3bf9989fe723c4642d82b4964d26a",
        "1708ffc000d22815b30868a3ba951add992632a5c267fb92e31fe53bcb2a58b8",
        "edf7aeb704c454e94e120affbb2597be5ec94f03eddbf7614e9a4732f269d17c",
    ),
    "GammaLevelNoise": (
        "fcdd718477f149e957062b97bf8f50cd033b6c92cf792627024afa3f9f1dfc74",
        "94e23337bb1eb77b5aa60791796aeed77378502fa8309c8f648e5c98a88ac78e",
        "bcb86ebd35d029632e73521940d88247c433a5b59da286a9769b7db6e0124e1c",
    ),
    "GaussianNoise": (
        "f7e099b0dd45ad1e145b028c3e0cd15cacaf907e13920bd059a9ca9c37b1931f",
        "152b4ee6c74cc20f18c0093ca3faeba819b6a1e600ea2e742b42f45fc9ffaca0",
        "890cc402ff9ab451ec9d7bb0205a9f4cebbb2dd5479e67eb5fcc94d6b81a2c6d",
    ),
    "HeteroscedasticNoise": (
        "f6c0efb7d70703992e6ebdedb5f9a393032e0e5c0bab838088cecdb58428049b",
        "c2e67277c2a63f0484691307aa10689da5679be5e58a734801933df0821069e5",
        "3ebef777e6d299eb8557ccdf88f9199b8343bdee0d34fad765a78480abc3d81a",
    ),
    "LognormalSpikeNoise": (
        "1215ee083f7ec96a05991a44785460bb2c96a1d4366f687f35f7cb51028b5ce0",
        "7bc04913d9e195ef9acd6ed80e027c9c5574387a1d79f4e53320e2cc1816da56",
        "b80f7b61035a0345143a489660e215b7ae066e498152fe614ff0696ab1834936",
    ),
    "NoNoise": (
        "bd62eb78b69f9b329c008b3c9f1144995efc316586fdb92f018c85bedbcf64e9",
        "44eec25919975377cfce2d222fc38e2e984a9a85d9a61460df10e1a1405d7147",
        "920630d8e1dc442eeb9498f721c56721703c8f122b9fb5e4cad67514481c6a03",
    ),
    "SystematicErrorNoise": (
        "0c0ccfb7559205af8dfaaeb924a4d58387df7c49ad9c91a6f52423ac30b24e27",
        "606c33c9539eeda6d50c7daadf03a01b87ac84518632a23a3b6eae8c09a234a2",
        "283fddd2f75cbbfc6f50fc86741c1261ba260176dcb129ff44e97edd405ea19f",
    ),
    "TaintedRepetitionNoise": (
        "57799ce3c8661ff6da24ed9190c932b4ff85ad72f60523af36d7138e84608fa0",
        "dd89cda1ace642adcd2b265a5b27c3c08a289b52946f758732e7dc45e3dd1adc",
        "1c421282374ac0467d73eb751e4855e3bdd1b6cf05f8c7759521620a3c2405a5",
    ),
    "UniformLevelRangeNoise": (
        "4235e905430e52a59839df2346545ca675d14185672335360f0b86508cec54af",
        "ef0d1b623ff439e4a512616b2bab320378eb24fd4ca02874bc5890bbf4d004c6",
        "2650ba63735e39e9c118a9097a32cc556b273fdbde21299b6b92ff2826ae90da",
    ),
    "UniformNoise": (
        "9ea2bee871ba18915e6da3e77c8c96dbd1581418c5b97f329a0f6b48e876b236",
        "6f38c52d3c9ab98d4aa47086e1e99314cc8f1d3125022a2bbc8b37dd79999613",
        "4913c45604e819e6d5bcfd08cd2916626dc99f4da90ce5dbef039405f57a5494",
    ),
    "clean": (
        "bd62eb78b69f9b329c008b3c9f1144995efc316586fdb92f018c85bedbcf64e9",
        "44eec25919975377cfce2d222fc38e2e984a9a85d9a61460df10e1a1405d7147",
        "920630d8e1dc442eeb9498f721c56721703c8f122b9fb5e4cad67514481c6a03",
    ),
    "drift": (
        "e922ef76442943ce0a611639c8eb343e9fd3bf9989fe723c4642d82b4964d26a",
        "1708ffc000d22815b30868a3ba951add992632a5c267fb92e31fe53bcb2a58b8",
        "edf7aeb704c454e94e120affbb2597be5ec94f03eddbf7614e9a4732f269d17c",
    ),
    "gamma": (
        "fcdd718477f149e957062b97bf8f50cd033b6c92cf792627024afa3f9f1dfc74",
        "94e23337bb1eb77b5aa60791796aeed77378502fa8309c8f648e5c98a88ac78e",
        "bcb86ebd35d029632e73521940d88247c433a5b59da286a9769b7db6e0124e1c",
    ),
    "gaussian": (
        "f7e099b0dd45ad1e145b028c3e0cd15cacaf907e13920bd059a9ca9c37b1931f",
        "152b4ee6c74cc20f18c0093ca3faeba819b6a1e600ea2e742b42f45fc9ffaca0",
        "890cc402ff9ab451ec9d7bb0205a9f4cebbb2dd5479e67eb5fcc94d6b81a2c6d",
    ),
    "heteroscedastic": (
        "f6c0efb7d70703992e6ebdedb5f9a393032e0e5c0bab838088cecdb58428049b",
        "c2e67277c2a63f0484691307aa10689da5679be5e58a734801933df0821069e5",
        "3ebef777e6d299eb8557ccdf88f9199b8343bdee0d34fad765a78480abc3d81a",
    ),
    "spike": (
        "1215ee083f7ec96a05991a44785460bb2c96a1d4366f687f35f7cb51028b5ce0",
        "7bc04913d9e195ef9acd6ed80e027c9c5574387a1d79f4e53320e2cc1816da56",
        "b80f7b61035a0345143a489660e215b7ae066e498152fe614ff0696ab1834936",
    ),
    "systematic": (
        "0c0ccfb7559205af8dfaaeb924a4d58387df7c49ad9c91a6f52423ac30b24e27",
        "606c33c9539eeda6d50c7daadf03a01b87ac84518632a23a3b6eae8c09a234a2",
        "283fddd2f75cbbfc6f50fc86741c1261ba260176dcb129ff44e97edd405ea19f",
    ),
    "tainted": (
        "57799ce3c8661ff6da24ed9190c932b4ff85ad72f60523af36d7138e84608fa0",
        "dd89cda1ace642adcd2b265a5b27c3c08a289b52946f758732e7dc45e3dd1adc",
        "1c421282374ac0467d73eb751e4855e3bdd1b6cf05f8c7759521620a3c2405a5",
    ),
    "uniform": (
        "9ea2bee871ba18915e6da3e77c8c96dbd1581418c5b97f329a0f6b48e876b236",
        "6f38c52d3c9ab98d4aa47086e1e99314cc8f1d3125022a2bbc8b37dd79999613",
        "4913c45604e819e6d5bcfd08cd2916626dc99f4da90ce5dbef039405f57a5494",
    ),
    "uniform_range": (
        "4235e905430e52a59839df2346545ca675d14185672335360f0b86508cec54af",
        "ef0d1b623ff439e4a512616b2bab320378eb24fd4ca02874bc5890bbf4d004c6",
        "2650ba63735e39e9c118a9097a32cc556b273fdbde21299b6b92ff2826ae90da",
    ),
}

#: (json, csv, text) digests of :func:`merged_experiment`.
MERGED_DIGESTS = (
    "6e2fc2f2f8f7da7b239432ce86ff466b37fdb6f4458fc96e0e40bccbaff1f8da",
    "890c80687a3187b36dd948db3379cea4719d6f5f520f07a7a61d218e849f8d39",
    "46526f9dbbfa0d0fd5b2c2fee4b762f0970c2a9ff7c7a58f02a2a368614a2bf2",
)

#: Digest of the served response (timings removed) for :func:`served_payload`.
SERVICE_DIGEST = "8ef2729aec14ee39d9ac533411a38c48c81fdd1949a102bbc279fa90e75b523e"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def serializations(experiments, tmp_path) -> "tuple[str, str, str]":
    """(json, csv, text) digests over ``experiments`` written in turn."""
    digests = []
    for fmt, save in SAVERS.items():
        blob = b""
        for index, experiment in enumerate(experiments):
            path = tmp_path / f"exp{index}.{fmt}"
            save(experiment, path)
            blob += path.read_bytes()
        digests.append(sha256(blob))
    return tuple(digests)


def merged_experiment() -> Experiment:
    """Two kernels added point by point, out of order: repeated coordinates
    merge their repetitions (2 + 3, 1 + 1 + 2), counts differ per point,
    and the second kernel lacks points the first has."""
    exp = Experiment(["p", "n"])
    first = exp.create_kernel("solve")
    gen = np.random.default_rng(SEED)
    adds = [
        ((16.0, 10.0), 3),
        ((4.0, 20.0), 2),
        ((4.0, 10.0), 5),
        ((16.0, 10.0), 2),
        ((8.0, 10.0), 1),
        ((8.0, 20.0), 4),
        ((8.0, 10.0), 1),
        ((8.0, 10.0), 2),
    ]
    first.add_rows(
        [point for point, _ in adds], [gen.lognormal(1.0, 0.5, size=count) for _, count in adds]
    )
    second = exp.create_kernel("halo", metric="bytes")
    second.add_rows(
        [(8.0, 20.0), (4.0, 10.0), (8.0, 20.0)], [gen.uniform(1.0, 2.0, size=3) for _ in range(3)]
    )
    return exp


def served_payload() -> dict:
    function = parse_function(FUNCTIONS[2])
    exp = synthesize_experiment(
        function, VALUE_SETS[:2], UniformNoise(0.2), repetitions=5, rng=SEED
    )
    return {
        "schema": "repro.request/v1",
        "method": "regression",
        "seed": 0,
        "experiment": to_json_dict(exp),
    }


def without_timings(response: dict) -> dict:
    response = dict(response)
    response.pop("seconds")
    models = []
    for model in response["models"]:
        model = dict(model)
        model.pop("seconds")
        model["provenance"] = dict(model["provenance"])
        model["provenance"].pop("stage_seconds")
        models.append(model)
    response["models"] = models
    return response


@pytest.mark.parametrize("name", sorted(registered_noise_models()))
def test_synthesized_experiments_serialize_unchanged(name, tmp_path):
    noise = registered_noise_models()[name]
    experiments = [
        synthesize_experiment(
            parse_function(FUNCTIONS[m]), VALUE_SETS[:m], noise, repetitions=5, rng=SEED
        )
        for m in (1, 2, 3)
    ]
    assert serializations(experiments, tmp_path) == SPEC_DIGESTS[name]


def test_every_registered_spec_is_pinned():
    assert sorted(SPEC_DIGESTS) == sorted(registered_noise_models())


def test_merged_kernel_serializes_unchanged(tmp_path):
    exp = merged_experiment()
    counts = [m.repetitions for m in exp.kernel("solve").measurements]
    assert counts == [5, 2, 4, 4, 5]
    assert serializations([exp], tmp_path) == MERGED_DIGESTS


def test_service_response_unchanged():
    from repro.service.core import _SERVICE_STATE, ModelingService, ServiceConfig

    _SERVICE_STATE.clear()
    try:
        with ModelingService(ServiceConfig(processes=1)) as service:
            response = service.request(served_payload(), timeout=60)
    finally:
        _SERVICE_STATE.clear()
    assert response["status"] == 200, response
    blob = json.dumps(without_timings(response), sort_keys=True).encode("utf-8")
    assert sha256(blob) == SERVICE_DIGEST
