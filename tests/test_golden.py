"""Golden bytes: the exact output of short fixed runs.

Pins the sha256 of ``model.txt`` and ``metrics.csv`` for 100-step runs
(evaluation every 50 steps) on two-moons, 400 source and 400 target points,
target rotated 35 degrees.  The runs cover the four acceptance setups (dann
or mdd, saf off or on), every variant of the ablation grid, the
``include_source`` + ``after_bottleneck`` combination on both backbones, a
run with the adversary switched off (``lambda_d_max = 0``) and an
``only_certain`` filter strict enough to leave fewer than two mixed rows.
It also pins the ``repr`` of the dicts ``train_step`` returns for steps 0-2
of the four setups; step 0 has lambda_d = 0, so this covers the
out-of-graph adversarial value that no file records.

Refactors and speedups must leave every value here unchanged.  Only a
change that declares a numerics change in CHANGES.md may regenerate them:
``PYTHONPATH=src python tests/test_golden.py`` prints the current values.
"""

from dataclasses import replace

import pytest

from helpers import golden_data, run_digests
from saflab.config import default_config
from saflab.runs import ABLATION_VARIANTS, ablation_config

STEPS = 100
EVAL_EVERY = 50

SETUPS = {
    "dann": dict(backbone="dann", saf_enabled=False),
    "dann_saf": dict(backbone="dann", saf_enabled=True),
    "mdd": dict(backbone="mdd", saf_enabled=False),
    "mdd_saf": dict(backbone="mdd", saf_enabled=True),
}

# sha256 of (model.txt, metrics.csv)
GOLDEN_RUNS = {
    "dann": (
        "1f4599ad57ff8b4dcda26a6ca479f6fb704ff3dcae16b64e7f2b67a0511c1820",
        "ed4c68e1ade1b2446cc7f8dd40ea0012429a7fa9a74c6b4f5d32a8f8b6683b88",
    ),
    "dann_saf": (
        "424bf1d8e4d180095521176742070b7c71c82afba0c944714f79b100d7e4c448",
        "3f70ba56b1beded68ade764942b5b2f09288e3a9b8ca6833fe5711f215db39f0",
    ),
    "dann_source_after_bottleneck": (
        "faf8e25e3a3347b0df52d9179a0b04cea7542e24f016312389858101b7e1b566",
        "e6aaa47b92247cc018bb026f458a02b75205ba355e3aebbcbdca15fc7586c17a",
    ),
    "mdd": (
        "04a7c4bc69be69e287f16359004dce30411181b811d63bb515422d343566bc0f",
        "5c4835d479bf1cc13d3c8c5cfd2542bf2229582f7792d5231224a4a7fc999651",
    ),
    "mdd_beta_eta": (
        "1e5f63d3b491e21012ccb8f16f2e37edcc58c0639f8c1296d9f70d302f050af6",
        "60bb5b26ac809e1470fbb1bcb8ad377fbbe6cc630971d4a6cdaa4af451d0fec4",
    ),
    "mdd_constant_eta": (
        "2f506d19901529504fab34787f77692c4e536b25bf848f6405b7b92f34f83c3b",
        "f4d580811119e397ac7b9d1d0fb99482689c38d7aedf57e306b317d01d2408ef",
    ),
    "mdd_four_bottlenecks": (
        "eac47118a16a099f6f0bdb76c9d0567b5ce4494064b4d663cfd76a4c64d755df",
        "e366c04c182b1c1bb4f36de6f3875b86315260a4fa53c1f7e0bb251c9c01606b",
    ),
    "mdd_include_source": (
        "e852572b1571c7e094843ec020494e58ce430aa5a33c7dc125cca7db3fcb3784",
        "ea2cb96f6f2a34245ac3ee17a3116e48eff3e3b56d5a9f39c3dcf961bf693cad",
    ),
    "mdd_no_adversary": (
        "7c3f2e86d005167374d47bcbde5fb4f2e7cbecbe03917f21b48e75d47aaa545f",
        "fcbd879fbe616b0a64ea823be04b095537bccf832ad474c4e0b586f37b29834b",
    ),
    "mdd_no_bottleneck": (
        "d73cfe133a376b5521135dc7a444132f568d03ab03ce7bf8e8c6f26a3977b304",
        "e41cf5d195c51e8d9866de04a575b76b9f7049c8f5c0232b3ec0288fd20d48f4",
    ),
    "mdd_one_bottleneck": (
        "454a2c059fb1d7968d1a4de0ca4b06f67ff8e9f4a1a4d3482202696eb37bd71f",
        "9d75b28fb8b98c22ee54754f79ba51890613c2ff078baa19899ba7484d3fc0b5",
    ),
    "mdd_only_certain": (
        "eea6cb0844f37fd976fbd18ba9b5749704a20ec1f92d09dcb6bd9c9a7649d118",
        "7a62246f8497df3a3cf10ab2f6bdcb7795fa0a98dff9f7e7d8bc1edbf97713e8",
    ),
    "mdd_only_certain_strict": (
        "461b4d0e20f1a9d12e68b8e129312b45403da0be19f3900ba4d8db2f63402edc",
        "6b44ca867eb111138f4dde11456e004040bed378b07b76766c19ebd9f5cc551b",
    ),
    "mdd_only_uncertain": (
        "8c708368477f07da3b1d32765119c7f3f5a9c4b5fe0564b39b48f2e7e68b635d",
        "ba262353f808262d239caf638c668b180e5fd05a27aef731b40ea758bc83de9f",
    ),
    "mdd_saf": (
        "abf2bdc4c696e3c4d561269002152a79c35953264b9d6aab7d4ae480bf48ce1f",
        "4360b88c7321bcdbdd265529cc64acade3b07e3d6daf2750aa9edb14b921080e",
    ),
    "mdd_source_after_bottleneck": (
        "5f881520b97cf310f3ba57d63d9dfd5d25ab418178e23508657d828f228cde47",
        "0966470791e678d9991d520d0b5596e8fb339426a2ad308a3e866f639d9ee961",
    ),
}

GOLDEN_STEPS = {
    "dann": [
        "{'eps_c': 0.602907459938005, 'eps_d': 0.6623968748236649, 'eps_m': 0.0, 'lambda_d': 0.0, 'lambda_m': 0.0}",
        "{'eps_c': 0.5830822994328859, 'eps_d': 0.8956166522484246, 'eps_m': 0.0, 'lambda_d': 0.009966799462495582, 'lambda_m': 0.004995837495787998}",
        "{'eps_c': 0.5965550116750482, 'eps_d': 0.9216936897554315, 'eps_m': 0.0, 'lambda_d': 0.0197375320224904, 'lambda_m': 0.009966799462495582}",
    ],
    "dann_saf": [
        "{'eps_c': 0.602907459938005, 'eps_d': 0.6623968748236649, 'eps_m': 0.7135614949974508, 'lambda_d': 0.0, 'lambda_m': 0.0}",
        "{'eps_c': 0.5961450550295966, 'eps_d': 0.9269914206894126, 'eps_m': 0.785387575589798, 'lambda_d': 0.009966799462495582, 'lambda_m': 0.004995837495787998}",
        "{'eps_c': 0.5746447381629465, 'eps_d': 0.8440039492744451, 'eps_m': 0.7018609661973922, 'lambda_d': 0.0197375320224904, 'lambda_m': 0.009966799462495582}",
    ],
    "mdd": [
        "{'eps_c': 0.602907459938005, 'eps_d': 3.6591165784422284, 'eps_m': 0.0, 'lambda_d': 0.0, 'lambda_m': 0.0}",
        "{'eps_c': 0.5830822994328859, 'eps_d': 4.440387441007679, 'eps_m': 0.0, 'lambda_d': 0.009966799462495582, 'lambda_m': 0.004995837495787998}",
        "{'eps_c': 0.6373079488716175, 'eps_d': 3.535490989134804, 'eps_m': 0.0, 'lambda_d': 0.0197375320224904, 'lambda_m': 0.009966799462495582}",
    ],
    "mdd_saf": [
        "{'eps_c': 0.602907459938005, 'eps_d': 3.6591165784422284, 'eps_m': 0.7135614949974508, 'lambda_d': 0.0, 'lambda_m': 0.0}",
        "{'eps_c': 0.5961450550295966, 'eps_d': 4.023169652312515, 'eps_m': 0.785387575589798, 'lambda_d': 0.009966799462495582, 'lambda_m': 0.004995837495787998}",
        "{'eps_c': 0.6305364809264181, 'eps_d': 3.850070639416361, 'eps_m': 0.6968764609127058, 'lambda_d': 0.0197375320224904, 'lambda_m': 0.009966799462495582}",
    ],
}


def _short(train, **kw):
    return replace(train, total_iterations=STEPS, eval_every=EVAL_EVERY, **kw)


def run_configs():
    """Name -> TrainConfig for every pinned run."""
    base = default_config()
    configs = {name: _short(base.train, **kw) for name, kw in SETUPS.items()}
    for variant in ABLATION_VARIANTS:
        if variant not in ("backbone_only", "full_saf"):  # these are mdd and mdd_saf
            configs[f"mdd_{variant}"] = _short(ablation_config(base, variant).train)
    for backbone in ("dann", "mdd"):
        mixup = replace(base.train.mixup, include_source=True)
        configs[f"{backbone}_source_after_bottleneck"] = _short(
            base.train, backbone=backbone, mixup=mixup, mixup_after_bottleneck=True)
    configs["mdd_no_adversary"] = _short(base.train, lambda_d_max=0.0)
    strict = replace(base.train.mixup, entropy_filter="only_certain", entropy_threshold=0.01)
    configs["mdd_only_certain_strict"] = _short(base.train, mixup=strict)
    return configs


def pinned_run(name, out_dir):
    return run_digests(run_configs()[name], golden_data(400, 400), out_dir)


@pytest.mark.parametrize("name", sorted(run_configs()))
def test_run_bytes_unchanged(name, golden_run):
    assert golden_run(name)[0][:2] == GOLDEN_RUNS[name]


@pytest.mark.parametrize("name", sorted(SETUPS))
def test_first_steps_unchanged(name, golden_run):
    assert golden_run(name)[0][2] == GOLDEN_STEPS[name]


def test_every_ablation_variant_is_pinned():
    assert set(GOLDEN_RUNS) == set(run_configs())


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        runs = {name: pinned_run(name, Path(tmp) / name) for name in sorted(run_configs())}
        print("GOLDEN_RUNS = {")
        for name, (model, metrics, _) in runs.items():
            print(f'    "{name}": (\n        "{model}",\n        "{metrics}",\n    ),')
        print("}\n\nGOLDEN_STEPS = {")
        for name in sorted(SETUPS):
            print(f'    "{name}": [')
            for line in runs[name][2]:
                print(f"        {line!r},")
            print("    ],")
        print("}")
