"""CLI subcommands, exit codes, manifests, and artifact determinism."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cnoweave import cli, cno, net, sde, serial, weave
from cnoweave.errors import OracleDivergedError


def write_cfg(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(cfg))
    return str(p)


def run(args):
    return cli.main(args)


def strict_json(text):
    """``json.loads`` that rejects Infinity and NaN, which the default accepts."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


HEALTH_FIELDS = {"M_T", "successor_residual", "recovery_error", "packing_min_separation",
                 "aspect_ratio", "aspect_bound", "hyper_dims", "hyper_params", "table2"}


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

    @pytest.mark.parametrize("regularity", [
        {"kind": "holder", "alpha": 1.0}, {"kind": "smooth", "k": 1},
    ])
    def test_huge_n_in_is_3_without_the_exact_power(self, tmp_path, regularity):
        # n_in fits np.intp, but 3 ** n_in as an exact integer would never finish
        cfg = write_cfg(tmp_path, "b.yaml", {
            "regularity": regularity, "eps_D": 0.5, "eps_A": 0.5,
            "n_in": 1_000_000_000_000_000_000, "n_out": 1,
            "out_dir": str(tmp_path / "o"),
        })
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "cnoweave.cli", "budget", cfg],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
            timeout=10,
        )
        assert proc.returncode == 3, proc.stderr

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

    def test_weave_miss_is_5_and_saves_nothing(self, tmp_path, capsys, monkeypatch):
        real = weave.build_weave

        def perturbed(*args, **kwargs):
            w = real(*args, **kwargs)
            return dataclasses.replace(w, hyper_theta=w.hyper_theta + 1e-6)

        monkeypatch.setattr(weave, "build_weave", perturbed)
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, "c.yaml", {
            "T": 3, "M": 2, "n_train": 32, "hidden": [4], "train": {"epochs": 2},
            "out_dir": str(out),
        })
        assert run(["construct", cfg]) == 5
        assert "integrity failure: the weave misses window" in capsys.readouterr().err
        assert not (out / "bundle").exists()

    def test_training_divergence_is_6(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "t.yaml", {
            "dims": [1, 8, 1], "target": "sin",
            "train": {"epochs": 50, "lr": 1e12}, "out_dir": str(tmp_path / "o"),
        })
        with pytest.warns(RuntimeWarning):
            assert run(["train-filter", cfg]) == 6
        assert "diverged" in capsys.readouterr().err

    def test_negative_epochs_is_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "t.yaml", {
            "dims": [1, 4, 1], "train": {"epochs": -1}, "out_dir": str(tmp_path / "o"),
        })
        assert run(["train-filter", cfg]) == 2
        assert "epochs" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command, cfg", [
        ("train-filter", {"dims": [1, 4, 1]}),
        ("construct", {"T": 2, "M": 2, "n_train": 16, "hidden": [4]}),
        ("sde-bench", {"n_paths": 20, "n_steps": 8, "n_modes": 1, "n_orbit_samples": 2}),
        ("compare-rnn", {"T": 2, "budgets": [{"kind": "ffnn", "dims": [2, 4, 1]},
                                             {"kind": "cno", "dims": [4]}]}),
    ])
    def test_train_seed_is_2_and_points_at_the_top_level_seed(self, tmp_path, capsys,
                                                              command, cfg):
        # every command seeds training from the top-level seed; train.seed was ignored
        path = write_cfg(tmp_path, "c.yaml", {**cfg, "train": {"epochs": 1, "seed": 2},
                                              "out_dir": str(tmp_path / "o")})
        assert run([command, path]) == 2
        err = capsys.readouterr().err
        assert "train.seed" in err and "top-level seed" in err

    @pytest.mark.parametrize("field", [{"hidden": ["x"]}, {"train": {"seed": 1}}])
    def test_sde_bench_reads_every_field_before_the_build(self, tmp_path, monkeypatch,
                                                          field):
        def build(*args, **kwargs):
            raise AssertionError("the Monte Carlo build ran before the config was read")

        monkeypatch.setattr(sde, "build_sde_dataset", build)
        path = write_cfg(tmp_path, "s.yaml", {**field, "out_dir": str(tmp_path / "o")})
        assert run(["sde-bench", path]) == 2

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
        summary = strict_json(capsys.readouterr().out)
        assert summary["T"] == 3
        assert HEALTH_FIELDS <= set(summary)
        assert summary["packing_min_separation"] > summary["delta"]
        assert 1.0 <= summary["aspect_ratio"] <= summary["aspect_bound"]
        assert summary["Q"] == 4
        # P + Q + 1 = 53 + 4 + 1 code coordinates with the clock; 3 codes: 2
        # memorized pairs, 1 knot unit
        assert summary["P"] == 53
        assert summary["hyper_dims"] == [58, 1, 1, 58]
        assert summary["hyper_params"] == net.param_count(net.NetSpec((58, 1, 1, 58)))
        assert summary["aspect_bound"] == (2 + 4 * 1.0 ** 2) ** 0.5 / 0.5
        # measured weave fidelity: within the successor gate and the recovery contract
        assert 0.0 <= summary["successor_residual"] <= 1e-9
        assert 0.0 <= summary["recovery_error"] <= 1e-6
        model = serial.load_bundle(str(out / "bundle"))
        w = model.weave_model
        assert summary["successor_residual"] == float(w.successor_residuals.max())
        stored = w.M_T * w.codes[:, : w.P]
        assert summary["recovery_error"] == max(
            float(np.max(np.abs(theta - code))) for theta, code in zip(model.filters, stored)
        ) / max(1.0, float(np.max(np.abs(stored))))

    def test_inspect_hashes_each_file_once(self, bundle, capsys, monkeypatch):
        # each bundle file is read once, and the bytes read are the bytes hashed
        _, out = bundle
        read, hashed = [], []
        real_read, real_hash = serial._read_file, serial.sha256_bytes

        def counted_read(path):
            read.append((os.path.basename(path), real_read(path)))
            return read[-1][1]

        def counted_hash(data):
            hashed.append(data)
            return real_hash(data)

        monkeypatch.setattr(serial, "_read_file", counted_read)
        monkeypatch.setattr(serial, "sha256_bytes", counted_hash)
        assert run(["inspect", str(out / "bundle")]) == 0
        assert sorted(name for name, _ in read) == sorted(serial.BUNDLE_FILES)
        assert len(hashed) == len(read)
        assert all(h is data for h, (_, data) in zip(hashed, read))

    def test_inspect_runs_the_successor_forward_once(self, bundle, capsys, monkeypatch):
        # the load gate's batched forward over the codes is the one inspect
        # reports; the rollout's steps are single codes
        _, out = bundle
        batched = []
        real = net._realize

        def counted(layers, c, h):
            if h.ndim == 2:
                batched.append(h.shape)
            return real(layers, c, h)

        monkeypatch.setattr(net, "_realize", counted)
        assert run(["inspect", str(out / "bundle")]) == 0
        assert batched == [(2, 58)]  # 2 codes of P + Q + 1 = 58 coordinates

    def test_inspect_measures_a_weave_that_drifted(self, bundle):
        # every hypernetwork weight moved by 1e-6: the decoded filters drift,
        # and both fidelity statistics report it
        _, out = bundle
        model = serial.load_bundle(str(out / "bundle"))
        w = model.weave_model
        drifted = dataclasses.replace(
            model, weave_model=dataclasses.replace(w, hyper_theta=w.hyper_theta + 1e-6))
        health = cli._weave_health(drifted.weave_model, drifted._thetas)
        assert health["successor_residual"] > 1e-9
        assert health["recovery_error"] > 1e-6

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_predict_of_a_non_finite_path_is_2(self, bundle, capsys, bad):
        tmp, out = bundle
        cfg = write_cfg(tmp, "bad.yaml", {
            "bundle": str(out / "bundle"),
            "path": [[0.5], [bad], [0.75]], "out_dir": str(tmp / "bad_predict"),
        })
        assert (".inf" if bad > 0 else ".nan") in (tmp / "bad.yaml").read_text()
        assert run(["predict", cfg]) == 2
        assert "config error: paths must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("M", 3), ("Q", 7), ("delta", 0.25),
                                          ("seed", 1), ("out_dim", 2), ("step_dim", 2)])
def test_model_json_that_disagrees_with_its_weave_is_5(bundle, tmp_path, capsys,
                                                       field, value):
    # the bundle has M=2, Q=4, delta=0.5, seed=0; the manifest is rehashed, so
    # only the check of model.json against the weave can catch the edit
    _, out = bundle
    tampered = tmp_path / "bundle"
    shutil.copytree(out / "bundle", tampered)
    meta = json.loads((tampered / "model.json").read_text())
    (tampered / "model.json").write_text(json.dumps({**meta, field: value}))
    serial.write_manifest(str(tampered), {}, serial.BUNDLE_FILES, {})
    cfg = write_cfg(tmp_path, "p.yaml", {"bundle": str(tampered),
                                         "path": [[0.5], [0.25], [0.75]],
                                         "out_dir": str(tmp_path / "o")})
    assert run(["predict", cfg]) == 5
    assert run(["inspect", str(tampered)]) == 5
    err = capsys.readouterr().err
    assert err.count("integrity failure") == 2 and "config error" not in err


def test_drifted_weave_is_5(bundle, tmp_path, capsys):
    # every hypernetwork weight moved by 1e-6 and the manifest rehashed: the
    # load gate stops predict, audit and inspect before they decode a filter
    _, out = bundle
    drifted = tmp_path / "bundle"
    shutil.copytree(out / "bundle", drifted)
    w = serial.load_weave(str(drifted / "weave.bin"))
    serial.save_weave(str(drifted / "weave.bin"),
                      dataclasses.replace(w, hyper_theta=w.hyper_theta + 1e-6))
    serial.write_manifest(str(drifted), {}, serial.BUNDLE_FILES, {})
    predict = write_cfg(tmp_path, "p.yaml", {"bundle": str(drifted),
                                             "path": [[0.5], [0.25], [0.75]],
                                             "out_dir": str(tmp_path / "o")})
    audit = write_cfg(tmp_path, "a.yaml", {"bundle": str(drifted), "n_pairs": 2,
                                           "out_dir": str(tmp_path / "o")})
    assert run(["predict", predict]) == 5
    assert run(["audit", audit]) == 5
    assert run(["inspect", str(drifted)]) == 5
    assert capsys.readouterr().err.count("integrity failure: the weave misses window") == 3


def rewrite_weave(bundle, edit, payload_of=lambda floats, T, Q, width: floats):
    """Apply ``edit(header, points, codes)`` to the stored weave.bin of a
    bundle directory, in place, store ``payload_of(floats, T, Q, width)`` of
    its edited payload, keep model.json's delta equal to the header's, and
    re-hash the manifest."""
    path = bundle / "weave.bin"
    magic, header, payload = path.read_bytes().split(b"\n", 2)
    h = json.loads(header)
    T, Q, width = h["T"], h["Q"], h["hyper_dims"][0]  # codes as wide as the net's input
    floats = np.frombuffer(payload, "<f8").copy()
    points = floats[: T * Q].reshape(T, Q)
    codes = floats[T * Q : T * (Q + width)].reshape(T, width)
    edit(h, points, codes)
    payload = payload_of(floats, T, Q, width).tobytes()
    path.write_bytes(b"\n".join([magic, json.dumps(h).encode(), payload]))
    meta = json.loads((bundle / "model.json").read_text())
    (bundle / "model.json").write_text(json.dumps({**meta, "delta": h["delta"]}))
    serial.write_manifest(str(bundle), {}, serial.BUNDLE_FILES, {})


def test_nan_packing_point_is_5(bundle, tmp_path, capsys):
    # a re-hashed weave.bin whose first code has a NaN packing coordinate, in
    # the codes and in the points block alike
    _, out = bundle
    tampered = tmp_path / "bundle"
    shutil.copytree(out / "bundle", tampered)

    def nan_point(h, points, codes):
        points[0, 0] = codes[0, h["P"]] = np.nan

    rewrite_weave(tampered, nan_point)
    assert run(["inspect", str(tampered)]) == 5
    assert "packing points must be finite" in capsys.readouterr().err


def _set(key, value):
    def edit(h, points, codes):
        h[key] = value
    return edit


def _scale_points(h, points, codes):
    points *= 0.9  # a packing still, but not the codes' own


@pytest.mark.parametrize("edit, message", [
    (_set("M_T", -1.0), "M_T must be finite and at least 1"),
    (_set("M_T", float("nan")), "M_T must be finite and at least 1"),
    (_set("delta", -0.5), "0 < delta < R"),
    (_set("delta", 0.0), "0 < delta < R"),
    (_set("delta", 1.0), "0 < delta < R"),
    (_set("R", float("inf")), "finite R"),
    (_set("R", float("nan")), "finite R"),
    (_scale_points, "the points block differs from the codes' packing coordinates"),
], ids=["M_T-negative", "M_T-nan", "delta-negative", "delta-zero", "delta-is-R",
        "R-inf", "R-nan", "points-rescaled"])
def test_rehashed_weave_that_fails_a_load_check_is_5(bundle, tmp_path, capsys,
                                                     edit, message):
    _, out = bundle
    tampered = tmp_path / "bundle"
    shutil.copytree(out / "bundle", tampered)
    rewrite_weave(tampered, edit)
    cfg = write_cfg(tmp_path, "p.yaml", {"bundle": str(tampered),
                                         "path": [[0.5], [0.25], [0.75]],
                                         "out_dir": str(tmp_path / "o")})
    assert run(["inspect", str(tampered)]) == 5
    assert run(["predict", cfg]) == 5
    err = capsys.readouterr().err
    assert err.count("integrity failure") == 2 and message in err


def test_empty_weave_is_5(bundle, tmp_path, capsys):
    # a re-hashed weave.bin whose header says T = 0 and whose payload is only
    # its hypernetwork: the sizes agree, but a weave of no codes decodes nothing
    _, out = bundle
    tampered = tmp_path / "bundle"
    shutil.copytree(out / "bundle", tampered)
    rewrite_weave(tampered, _set("T", 0),
                  payload_of=lambda floats, T, Q, width: floats[T * (Q + width):])
    assert run(["inspect", str(tampered)]) == 5
    assert "codes must be a nonempty" in capsys.readouterr().err


def test_inspect_reports_a_clockless_bundle_against_its_own_bound(capsys):
    # a bundle saved before the clock (see tests/test_serial.py) has codes
    # (theta / M_T, p), whose squared diameter is at most 1 + 4R^2
    legacy = os.path.join(os.path.dirname(__file__), "data", "legacy_signed")
    assert run(["inspect", legacy]) == 0
    summary = strict_json(capsys.readouterr().out)
    assert summary["aspect_bound"] == (1 + 4 * 1.0 ** 2) ** 0.5 / 0.5
    assert 1.0 <= summary["aspect_ratio"] <= summary["aspect_bound"]
    assert summary["hyper_dims"] == [21, 1, 28, 21]
    assert summary["successor_residual"] <= 1e-9

def test_horizon_1_bundle_inspects_as_strict_json(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, "c.yaml", {
        "T": 1, "M": 1, "n_train": 32, "hidden": [4], "eps_D": 0.5, "eps_A": 0.5,
        "train": {"epochs": 5}, "out_dir": str(out), "seed": 0,
    })
    assert run(["construct", cfg]) == 0
    capsys.readouterr()
    assert run(["inspect", str(out / "bundle")]) == 0
    summary = strict_json(capsys.readouterr().out)
    assert summary["T"] == 1 and HEALTH_FIELDS <= set(summary)
    # a single code has no pairwise distance
    assert summary["packing_min_separation"] is None
    assert summary["aspect_ratio"] is None


class TestWeaveTest:
    def test_horizon_1(self, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, "w.yaml", {"T": 1, "out_dir": str(out)})
        assert run(["weave-test", cfg]) == 0
        data = strict_json((out / "weave_test.json").read_text())
        assert strict_json(capsys.readouterr().out) == data
        assert HEALTH_FIELDS <= set(data)
        assert data["packing_min_separation"] is None and data["aspect_ratio"] is None
        assert data["max_relative_rollout_error"] == 0.0
        assert data["successor_residual"] == 0.0

    def test_report_fields(self, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, "w.yaml", {
            "P": 17, "Q": 4, "T": 8, "delta": 0.5, "out_dir": str(out),
        })
        assert run(["weave-test", cfg]) == 0
        data = json.loads((out / "weave_test.json").read_text())
        assert HEALTH_FIELDS <= set(data)
        assert data["max_relative_rollout_error"] <= 1e-6
        assert data["recovery_error"] <= 1e-6
        assert data["packing_min_separation"] > 0.5
        assert data["aspect_ratio"] <= data["aspect_bound"]
        assert data["successor_residual"] <= 1e-9
        assert data["table2"]["width_bound"] == 348

    def test_weave_miss_is_5_after_the_report(self, tmp_path, capsys, monkeypatch):
        real = weave.build_weave

        def perturbed(*args, **kwargs):
            w = real(*args, **kwargs)
            return dataclasses.replace(w, hyper_theta=w.hyper_theta + 1e-6)

        monkeypatch.setattr(weave, "build_weave", perturbed)
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, "w.yaml", {
            "P": 17, "Q": 4, "T": 8, "delta": 0.5, "out_dir": str(out),
        })
        assert run(["weave-test", cfg]) == 5
        assert "integrity failure: the weave misses window" in capsys.readouterr().err
        data = json.loads((out / "weave_test.json").read_text())
        assert data["successor_residual"] > 1e-9


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
