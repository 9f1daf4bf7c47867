"""The tree loader and the in-process A/B tool under ``tools/``."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import ab  # noqa: E402
import trees  # noqa: E402


@pytest.fixture(scope="module")
def two_trees():
    """The working tree imported twice, under two names."""
    return trees.load(ROOT, "saflab_tree_a"), trees.load(ROOT, "saflab_tree_b")


def test_two_names_are_two_packages_with_equal_buffers_after_mdd_saf_steps(two_trees, tmp_path):
    a, b = two_trees
    assert a.training is not b.training and a.Tensor is not b.Tensor
    assert a.training.__name__ == "saflab_tree_a.training"
    (call_a, state_a), (call_b, state_b) = (ab.TARGETS["mdd_saf_step"](m, tmp_path)
                                            for m in two_trees)
    for _ in range(4):
        call_a()
        call_b()
    assert state_a() == state_b()


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs this repository's git history")
def test_a_revision_loads_from_git_archive():
    head = trees.load("HEAD", "saflab_tree_head")
    assert head.autodiff.__name__ == "saflab_tree_head.autodiff"
    assert not Path(head.__file__).exists()  # the export is removed after the import
    assert len(trees.describe("HEAD")) == 40
    with pytest.raises(ValueError, match="no-such-revision"):
        trees.load("no-such-revision", "saflab_tree_bad")


def test_a_tiny_a_a_run_writes_the_report_schema(tmp_path, capsys):
    out = tmp_path / "ab.json"
    argv = ["--parent", str(ROOT), "--blocks", "2", "--calls", "2", "--repeats", "2",
            "--out", str(out)]
    assert ab.main(argv) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["parent"]["revision"] == report["change"]["revision"]
    assert report["protocol"] == {"blocks": 2, "calls": 2, "repeats": 2, "bootstrap": ab.BOOTSTRAP,
                                  "bytes_checked": True}
    assert report["numerics_change"] is False
    assert {"cpu_model", "nproc"} <= set(report["machine"])
    assert {"python", "numpy"} <= set(report["versions"])
    assert list(report["targets"]) == list(ab.TARGETS)
    for res in report["targets"].values():
        assert res["verdict"] in ("gain", "slowdown", "no change resolved")
        assert len(res["repeats"]) == 2
        for r in res["repeats"]:
            lo, hi = r["ci95"]
            assert lo <= r["median_ratio"] <= hi
            assert 0.0 <= r["change_won_share"] <= 1.0
        lo, hi = res["across_repeats"]["ci95"]
        assert lo <= res["across_repeats"]["ratio"] <= hi
    assert "verdict" in capsys.readouterr().out


def test_a_perturbed_side_fails_the_bytes_check(two_trees, tmp_path, monkeypatch):
    a, b = two_trees
    real = b.autodiff.sgd_nesterov_step
    monkeypatch.setattr(b.autodiff, "sgd_nesterov_step",
                        lambda buf, lr, mu: real(buf, lr * (1.0 + 1e-9), mu))
    kw = dict(targets=["mdd_saf_step"], blocks=2, calls=2, repeats=2)
    with pytest.raises(ab.BytesDiffer, match="mdd_saf_step, repeat 0, block 0"):
        ab.run(a, b, tmp_path, **kw)
    assert ab.run(a, b, tmp_path, check_bytes=False, **kw)["mdd_saf_step"]["repeats"]


def test_decision_rule():
    def reps(*cis):
        return [{"ci95": list(ci)} for ci in cis]

    inside, wide = {"ci95": [0.95, 0.96]}, {"ci95": [0.90, 1.05]}
    assert ab.verdict(inside, reps((0.90, 0.96), (0.93, 0.969))) == "gain"
    assert ab.verdict(wide, reps((0.90, 0.96), (0.93, 0.969))) == "no change resolved"
    assert ab.verdict(inside, reps((0.90, 0.96), (0.95, 0.98))) == "no change resolved"
    assert ab.verdict(wide, reps((0.99, 1.01), (1.031, 1.2))) == "slowdown"
    assert ab.verdict({"ci95": [1.04, 1.1]}, reps((0.99, 1.05))) == "slowdown"
    times = np.array([[1.0, 0.5], [1.0, 0.5], [1.0, 2.0]])
    s = ab.summarize(times, calls=10)
    assert s["median_ratio"] == 0.5 and s["change_won_share"] == pytest.approx(2 / 3)
    assert s["parent_ms_per_call"] == 100.0


def test_the_across_repeat_interval_is_students_t_on_the_logs():
    overall = ab.across_repeats([{"median_ratio": r} for r in (0.5, 1.0, 2.0)])
    assert overall["ratio"] == pytest.approx(1.0)
    half = 4.303 * np.log(2.0) / np.sqrt(3)  # the logs -ln 2, 0, ln 2 have sd ln 2
    assert overall["ci95"] == pytest.approx([np.exp(-half), np.exp(half)])
    with pytest.raises(ValueError, match=r"repeats must be in \[2, 11\], got 1"):
        ab.run(None, None, None, repeats=1)
