"""CLI subcommands, exit codes, manifests, and artifact determinism."""

import json
import os
import subprocess
import sys

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cnoweave import cli, cno, serial
from cnoweave.errors import OracleDivergedError


def write_cfg(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(cfg))
    return str(p)


def run(args):
    return cli.main(args)


class TestBudget:
    def test_holder_example(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, "b.yaml", {
            "regularity": {"kind": "holder", "alpha": 1.0},
            "eps_D": 1.0, "eps_A": 1.0, "lam": 1.0 / 131.0,
            "n_in": 1, "n_out": 1, "out_dir": str(out),
        })
        assert run(["budget", cfg]) == 0
        data = json.loads((out / "budget.json").read_text())
        assert data["budget"]["width"] == 18
        assert data["budget"]["depth"] == 32
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["files"]) == {"budget.json"}

    def test_table2_section(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, "b.yaml", {
            "regularity": {"kind": "smooth", "k": 1},
            "eps_D": 0.25, "eps_A": 0.25, "n_in": 1, "n_out": 1,
            "C_fbar": 1.0 / (85.0 * 2 * 8),
            "table2": {"P": 17, "Q": 4, "delta": 0.5, "T": 16},
            "out_dir": str(out),
        })
        assert run(["budget", cfg]) == 0
        data = json.loads((out / "budget.json").read_text())
        assert data["table2"]["width_bound"] == 348

    def test_env_out_dir(self, tmp_path, monkeypatch):
        out = tmp_path / "env_out"
        monkeypatch.setenv("CNOWEAVE_OUT", str(out))
        cfg = write_cfg(tmp_path, "b.yaml", {
            "regularity": {"kind": "holder", "alpha": 1.0},
            "eps_D": 0.5, "eps_A": 0.5, "n_in": 1, "n_out": 1,
        })
        assert run(["budget", cfg]) == 0
        assert (out / "budget.json").exists()


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        assert run(["budget", str(tmp_path / "nope.yaml")]) == 2

    def test_missing_field(self, tmp_path):
        cfg = write_cfg(tmp_path, "b.yaml", {"out_dir": str(tmp_path / "o")})
        assert run(["budget", cfg]) == 2

    def test_no_out_dir_anywhere(self, tmp_path, monkeypatch):
        monkeypatch.delenv("CNOWEAVE_OUT", raising=False)
        cfg = write_cfg(tmp_path, "b.yaml", {
            "regularity": {"kind": "holder", "alpha": 1.0},
            "eps_D": 0.5, "eps_A": 0.5, "n_in": 1, "n_out": 1,
        })
        assert run(["budget", cfg]) == 2

    def test_budget_overflow_is_3(self, tmp_path):
        cfg = write_cfg(tmp_path, "b.yaml", {
            "regularity": {"kind": "holder", "alpha": 0.05},
            "eps_D": 1e-6, "eps_A": 1e-6, "n_in": 4, "n_out": 4,
            "out_dir": str(tmp_path / "o"),
        })
        assert run(["budget", cfg]) == 3

    def test_training_shortfall_is_4(self, tmp_path):
        cfg = write_cfg(tmp_path, "t.yaml", {
            "dims": [1, 2, 1], "target": "sin", "gate": 1e-9,
            "train": {"epochs": 3}, "out_dir": str(tmp_path / "o"),
        })
        assert run(["train-filter", cfg]) == 4
        report = json.loads((tmp_path / "o" / "train_report.json").read_text())
        assert report["shortfall"] is True

    def test_corrupt_bundle_is_5(self, tmp_path):
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, "c.yaml", {
            "T": 2, "M": 2, "n_train": 64, "hidden": [8],
            "eps_D": 0.5, "eps_A": 0.5, "train": {"epochs": 10},
            "out_dir": str(out),
        })
        assert run(["construct", cfg]) == 0
        target = out / "bundle" / "weave.bin"
        blob = target.read_bytes()
        target.write_bytes(blob[:-1])
        assert run(["inspect", str(out / "bundle")]) == 5

    def test_manifest_without_files_is_5(self, tmp_path):
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, "c.yaml", {
            "T": 2, "M": 2, "n_train": 64, "hidden": [8],
            "eps_D": 0.5, "eps_A": 0.5, "train": {"epochs": 10},
            "out_dir": str(out),
        })
        assert run(["construct", cfg]) == 0
        bundle = out / "bundle"
        manifest = json.loads((bundle / "manifest.json").read_text())
        manifest["files"] = {}
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        (bundle / "weave.bin").unlink()
        assert run(["inspect", str(bundle)]) == 5

    @pytest.mark.parametrize("text", ['{"files": ', "[]", '{"schema_version": 1}'])
    def test_malformed_manifest_is_5(self, tmp_path, capsys, text):
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, "c.yaml", {
            "T": 2, "M": 2, "n_train": 64, "hidden": [8],
            "eps_D": 0.5, "eps_A": 0.5, "train": {"epochs": 10},
            "out_dir": str(out),
        })
        assert run(["construct", cfg]) == 0
        (out / "bundle" / "manifest.json").write_text(text)
        assert run(["inspect", str(out / "bundle")]) == 5
        assert "integrity failure" in capsys.readouterr().err

    def test_training_divergence_is_6(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "t.yaml", {
            "dims": [1, 8, 1], "target": "sin",
            "train": {"epochs": 50, "lr": 1e12}, "out_dir": str(tmp_path / "o"),
        })
        with pytest.warns(RuntimeWarning):
            assert run(["train-filter", cfg]) == 6
        assert "diverged" in capsys.readouterr().err

    def test_oracle_divergence_is_6(self, tmp_path, monkeypatch):
        def diverging(cfg):
            raise OracleDivergedError("simulation produced non-finite values", step=3)

        monkeypatch.setitem(cli.COMMANDS, "sde-bench", diverging)
        cfg = write_cfg(tmp_path, "s.yaml", {"out_dir": str(tmp_path / "o")})
        assert run(["sde-bench", cfg]) == 6


HOLDER_BUDGET = {
    "regularity": {"kind": "holder", "alpha": 1.0},
    "eps_D": 0.5, "eps_A": 0.5, "n_in": 1, "n_out": 1,
}
SMALL_WEAVE = {"P": 5, "Q": 4, "T": 4, "delta": 0.5, "seed": 0}


class TestBadConfig:
    @pytest.mark.parametrize("command, cfg, field", [
        ("weave-test", {**SMALL_WEAVE, "seed": "abc"}, "seed"),
        ("budget", {**HOLDER_BUDGET, "eps_D": "abc"}, "eps_D"),
        ("construct", {"T": 2, "M": 2, "n_train": 16, "hidden": ["x"]}, "hidden"),
        ("compare-rnn", {"T": 2, "budgets": [{"dims": [2, 4, 1]}]}, "budgets.0.kind"),
        ("train-filter", {"dims": [1, 4, 1], "train": {"epoch": 3}}, "epoch"),
        ("weave-test", {**SMALL_WEAVE, "P": 1.0e30}, "P"),
    ])
    def test_ill_typed_field_is_2_and_named(self, tmp_path, capsys, command, cfg, field):
        path = write_cfg(tmp_path, "c.yaml", {**cfg, "out_dir": str(tmp_path / "o")})
        assert run([command, path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and field in err

    def test_non_utf8_config_is_2(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_bytes(b"seed: \xff\xfe\n")
        assert run(["budget", str(path)]) == 2

    def test_directory_as_config_is_2(self, tmp_path):
        assert run(["budget", str(tmp_path)]) == 2


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), command=st.sampled_from(["budget", "weave-test"]))
def test_any_value_in_one_field_exits_with_a_documented_code(tmp_path, data, command):
    """Replace one field of a valid config with a random string, list or
    number: the command ends with a documented exit code, never a traceback.
    Numbers stay within ±100, or are ±1e30, which no integer field may take:
    a size in between could ask for a model too large to build quickly."""
    cfg = dict(HOLDER_BUDGET if command == "budget" else SMALL_WEAVE)
    field = data.draw(st.sampled_from(sorted(cfg)))
    number = st.integers(-100, 100) | st.floats(-100, 100) | st.sampled_from(
        [float("nan"), float("inf"), -float("inf"), 1e30, -1e30])
    cfg[field] = data.draw(st.text(max_size=5) | st.lists(number, max_size=3) | number)
    path = write_cfg(tmp_path, "c.yaml", {**cfg, "out_dir": str(tmp_path / "o")})
    assert run([command, path]) in {0, 2, 3, 4, 5, 6}


def test_module_entry_point_imports_cleanly():
    # the package must not import cli, or runpy warns on `python -m cnoweave.cli`
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "cnoweave.cli", "--help"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


class TestTrainFilter:
    def test_linear_target_saves_net(self, tmp_path):
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, "t.yaml", {
            "dims": [1, 8, 1], "target": "linear", "gate": 0.15,
            "train": {"epochs": 600, "lr": 0.1, "batch": 64},
            "out_dir": str(out), "seed": 1,
        })
        assert run(["train-filter", cfg]) == 0
        spec, theta = serial.load_net(str(out / "filter.net"))
        assert spec.dims == (1, 8, 1)
        report = json.loads((out / "train_report.json").read_text())
        assert report["max_train_error"] < 0.15


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipe")
    out = tmp / "run"
    cfg = write_cfg(tmp, "c.yaml", {
        "T": 3, "M": 2, "n_train": 128, "hidden": [12],
        "eps_D": 0.5, "eps_A": 0.5, "train": {"epochs": 40},
        "out_dir": str(out), "seed": 0,
    })
    assert run(["construct", cfg]) == 0
    return tmp, out


class TestPipeline:
    def test_construct_artifacts(self, bundle):
        tmp, out = bundle
        assert (out / "bundle" / "manifest.json").exists()
        report = json.loads((out / "construct_report.json").read_text())
        assert report["windows"] == 3
        assert report["shortfalls"] == []

    def test_predict(self, bundle, capsys):
        tmp, out = bundle
        cfg = write_cfg(tmp, "p.yaml", {
            "bundle": str(out / "bundle"),
            "path": [[0.5], [0.25], [0.75]],
            "out_dir": str(out),
        })
        assert run(["predict", cfg]) == 0
        data = json.loads((out / "predictions.json").read_text())
        assert len(data["outputs"]) == 3

    def test_audit(self, bundle, capsys):
        tmp, out = bundle
        cfg = write_cfg(tmp, "a.yaml", {
            "bundle": str(out / "bundle"), "n_pairs": 25,
            "out_dir": str(out),
        })
        assert run(["audit", cfg]) == 0
        data = json.loads((out / "audit.json").read_text())
        assert data["ok"] and data["passed"] == 25

    def test_failed_audit_is_5(self, bundle, capsys, monkeypatch):
        tmp, out = bundle
        cfg = write_cfg(tmp, "a.yaml", {
            "bundle": str(out / "bundle"), "n_pairs": 4,
            "out_dir": str(tmp / "failed_audit"),
        })
        monkeypatch.setattr(cno, "causality_audit", lambda *args: False)
        assert run(["audit", cfg]) == 5
        assert "integrity failure: 4 of 4 audit pairs" in capsys.readouterr().err
        data = json.loads((tmp / "failed_audit" / "audit.json").read_text())
        assert not data["ok"] and data["passed"] == 0

    def test_inspect(self, bundle, capsys):
        tmp, out = bundle
        assert run(["inspect", str(out / "bundle")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["T"] == 3
        assert summary["Q"] == 4


class TestWeaveTest:
    def test_report_fields(self, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, "w.yaml", {
            "P": 17, "Q": 4, "T": 8, "delta": 0.5, "out_dir": str(out),
        })
        assert run(["weave-test", cfg]) == 0
        data = json.loads((out / "weave_test.json").read_text())
        assert data["max_relative_rollout_error"] <= 1e-6
        assert data["packing_min_separation"] > 0.5
        assert data["aspect_ratio"] <= data["aspect_bound"]
        assert data["table2"]["width_bound"] == 348


class TestDeterminism:
    def test_identical_configs_identical_artifacts(self, tmp_path):
        hashes = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            cfg = write_cfg(tmp_path, f"{tag}.yaml", {
                "T": 2, "M": 2, "n_train": 64, "hidden": [8],
                "eps_D": 0.5, "eps_A": 0.5, "train": {"epochs": 15},
                "seed": 7, "out_dir": str(out),
            })
            # out_dir differs between runs, so hash only the run payload
            cfg_obj = yaml.safe_load(open(cfg))
            assert run(["construct", cfg]) == 0
            files = json.loads((out / "bundle" / "manifest.json").read_text())["files"]
            hashes.append(files)
        assert hashes[0] == hashes[1]
