"""Binary formats and bundle integrity."""

import dataclasses
import json
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cnoweave import bench, cno, net, serial, weave
from cnoweave.errors import IntegrityError

RNG = np.random.default_rng


def small_model(seed=0):
    rng = RNG(seed)
    target = bench.RecursiveTarget(T=3, G="mean")
    z = rng.random((32, 3))
    path = bench.recursive_path(target, z)
    grid = cno.TimeGrid(np.arange(3, dtype=np.float64))
    ds = cno.windows_from_paths(z, path, grid, M=2, step_dim=1)
    model, _ = cno.construct_cno(ds, eps_D=0.3, eps_A=0.3, Q=4, delta=0.5,
                                 seed=seed, train_opts={"epochs": 20})
    return model


DATA = pathlib.Path(__file__).parent / "data"
LEGACY_DIMS = {"paired": (30, 1, 20, 10, 30), "signed": (21, 1, 28, 21),
               "tiled": (30, 20, 30)}


def legacy_model(layout):
    """The bundle ``tests/data/legacy_<layout>``, loaded (so it passed the
    load gate), and the (T, P) filters it decoded to when it was saved,
    ``legacy_<layout>.decoded.npy``.

    The bundles predate the clock coordinate: the code at commit c55c5ff,
    whose codes are (theta / M_T, p), wrote them with ``serial.save_bundle``
    of a ``CnoModel`` with no reports, loaded each back with
    ``serial.load_bundle`` and saved its ``model._thetas`` with np.save.

    - paired: ``build_weave(default_rng(5).standard_normal((12, 26)), Q=4,
      delta=0.5, seed=0)``, whose 30-wide codes over 11 pairs took the
      paired layout (30, 1, 20, 10, 30), stored as (3, 4, 1) PReLU filters;
    - signed: weave-test's default weave,
      ``build_weave(default_rng(0).standard_normal((16, 17)), Q=4,
      delta=0.5, seed=0)``, which took the signed layout (21, 1, 28, 21),
      stored as (2, 3, 1) filters;
    - tiled: the paired weave's hypernetwork rewritten in the tiled layout
      (30, 20, 30), which predates the width-1 projection layer: the
      projection tiled over the 20 hidden rows, gamma folded into the hidden
      biases, and the slope block multiplied by the pairing block.
    """
    return (serial.load_bundle(str(DATA / f"legacy_{layout}")),
            np.load(DATA / f"legacy_{layout}.decoded.npy"))


class TestNetFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = RNG(0)
        spec = net.NetSpec((3, 5, 2), "prelu")
        theta = rng.standard_normal(net.param_count(spec))
        p = tmp_path / "m.net"
        serial.save_net(str(p), spec, theta)
        spec2, theta2 = serial.load_net(str(p))
        assert spec2 == spec
        assert np.array_equal(theta, theta2)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.net"
        p.write_bytes(b"NOPE\n{}\n")
        with pytest.raises(IntegrityError):
            serial.load_net(str(p))

    def test_truncated_payload(self, tmp_path):
        rng = RNG(1)
        spec = net.NetSpec((2, 2), "relu")
        theta = rng.standard_normal(net.param_count(spec))
        p = tmp_path / "m.net"
        serial.save_net(str(p), spec, theta)
        data = p.read_bytes()
        p.write_bytes(data[:-8])
        with pytest.raises(IntegrityError):
            serial.load_net(str(p))


class TestWeaveFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = RNG(2)
        th = rng.standard_normal((6, 9))
        w = weave.build_weave(th, Q=4, delta=0.5, seed=0)
        p = tmp_path / "w.bin"
        serial.save_weave(str(p), w)
        w2 = serial.load_weave(str(p))
        assert np.array_equal(w.codes, w2.codes)
        assert np.array_equal(w.hyper_theta, w2.hyper_theta)
        assert np.array_equal(w.packing.points, w2.packing.points)
        assert (w.P, w.Q, w.M_T, w.delta, w.R) == (w2.P, w2.Q, w2.M_T, w2.delta, w2.R)
        for a, b in zip(weave.rollout(w, 6), weave.rollout(w2, 6)):
            assert np.array_equal(a, b)

    def check_legacy_layout(self, layout):
        model, decoded = legacy_model(layout)
        w = model.weave_model
        assert w.hyper_spec.dims == LEGACY_DIMS[layout]
        assert w.codes.shape == (w.T, w.P + w.Q) and not w.clocked
        assert model._thetas.tobytes() == decoded.tobytes()

    def test_tiled_layout_loads_and_decodes(self):
        # weaves saved before the width-1 projection layer repeat w on every
        # hidden row and keep gamma in the hidden biases
        self.check_legacy_layout("tiled")

    def test_width1_layout_loads_and_decodes(self):
        # weaves saved before the pairing layer store every slope twice
        self.check_legacy_layout("signed")

    def test_paired_layout_loads_and_decodes(self):
        # weaves saved before the clock store each slope once behind a
        # pairing layer
        self.check_legacy_layout("paired")

    @pytest.mark.parametrize("layout", ["clock", "paired", "signed", "tiled"],
                             ids=["clock", "paired", "width1", "tiled"])
    def test_rollout_is_chained_forward(self, layout):
        if layout == "clock":
            w = weave.build_weave(RNG(6).standard_normal((7, 11)), Q=4, delta=0.5, seed=0)
        else:
            w = legacy_model(layout)[0].weave_model
        z = w.z0
        chained = []
        for _ in range(w.T):
            chained.append(w.readout(z))
            z = net.forward(w.hyper_spec, w.hyper_theta, z)
        for a, b in zip(weave.rollout(w, w.T), chained):
            assert np.array_equal(a, b)

    def test_load_peak_below_one_and_a_half_payloads(self, tmp_path):
        w = weave.build_weave(RNG(3).standard_normal((8, 20_000)), Q=4, delta=0.5, seed=0)
        p = tmp_path / "w.bin"
        serial.save_weave(str(p), w)
        payload = 8 * (w.packing.points.size + w.codes.size + w.hyper_theta.size)
        tracemalloc.start()
        try:
            w2 = serial.load_weave(str(p))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(w.codes, w2.codes)
        assert peak < 1.5 * payload


class TestBundle:
    def test_save_verify_load(self, tmp_path):
        model = small_model()
        out = tmp_path / "bundle"
        serial.save_bundle(str(out), model, config={"seed": 0}, timings={"s": 1.0})
        manifest, contents = serial.verify_bundle(str(out))
        assert set(manifest["files"]) == set(contents) == {"weave.bin", "model.json"}
        loaded = serial.load_bundle(str(out))
        rng = RNG(3)
        for _ in range(10):
            path = rng.random((3, 1))
            a = cno.predict(model, path)
            b = cno.predict(loaded, path)
            assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_corruption_detected_with_file_name(self, tmp_path):
        model = small_model()
        out = tmp_path / "bundle"
        serial.save_bundle(str(out), model, config={})
        blob = (out / "weave.bin").read_bytes()
        (out / "weave.bin").write_bytes(blob[:-1] + bytes([blob[-1] ^ 1]))
        with pytest.raises(IntegrityError, match="weave.bin"):
            serial.verify_bundle(str(out))

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(IntegrityError):
            serial.verify_bundle(str(tmp_path / "nope"))

    def test_determinism_across_saves(self, tmp_path):
        m1 = small_model(seed=4)
        m2 = small_model(seed=4)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        serial.save_bundle(str(out1), m1, config={"x": 1})
        serial.save_bundle(str(out2), m2, config={"x": 1})
        f1 = serial.verify_bundle(str(out1))[0]["files"]
        f2 = serial.verify_bundle(str(out2))[0]["files"]
        assert f1 == f2  # identical configs give identical artifact hashes

    def test_manifest_must_list_exactly_the_bundle_files(self, tmp_path):
        out = tmp_path / "bundle"
        serial.save_bundle(str(out), small_model())
        (out / "extra.txt").write_text("x")
        for files in ([], ["weave.bin"], ["weave.bin", "model.json", "extra.txt"]):
            serial.write_manifest(str(out), {}, files, {})
            with pytest.raises(IntegrityError, match="must list exactly"):
                serial.verify_bundle(str(out))

    def test_drifted_weave_fails_the_load_gate(self, tmp_path):
        # every hypernetwork weight moved by 1e-6 and the manifest re-hashed:
        # only the successor gate can tell
        out = tmp_path / "bundle"
        model = small_model()
        serial.save_bundle(str(out), model)
        w = model.weave_model
        serial.save_weave(str(out / "weave.bin"),
                          dataclasses.replace(w, hyper_theta=w.hyper_theta + 1e-6))
        rehash(out)
        with pytest.raises(IntegrityError, match="the weave misses window"):
            serial.load_bundle(str(out))

    def test_param_count_disagreement_detected(self, tmp_path):
        out = tmp_path / "bundle"
        serial.save_bundle(str(out), small_model())
        meta = json.loads((out / "model.json").read_text())
        meta["synced_dims"][1] += 1
        (out / "model.json").write_text(json.dumps(meta))
        serial.write_manifest(str(out), {}, serial.BUNDLE_FILES, {})  # hashes match again
        with pytest.raises(IntegrityError, match="synced dims"):
            serial.load_bundle(str(out))


def rehash(bundle):
    """Rewrite the manifest so that its hashes match the files again."""
    serial.write_manifest(str(bundle), {}, serial.BUNDLE_FILES, {})


class TestMalformedFiles:
    """Every way a stored file can be malformed is an IntegrityError."""

    @pytest.mark.parametrize("text", ['{"files": ', "", "\xff", "[]", "3", "null"])
    def test_manifest_that_is_not_a_json_object(self, tmp_path, text):
        out = tmp_path / "bundle"
        serial.save_bundle(str(out), small_model())
        (out / "manifest.json").write_bytes(text.encode("latin-1"))
        with pytest.raises(IntegrityError, match="manifest.json"):
            serial.load_bundle(str(out))

    @pytest.mark.parametrize("key", ["config", "config_hash", "files", "timings"])
    def test_manifest_missing_a_key(self, tmp_path, key):
        out = tmp_path / "bundle"
        serial.save_bundle(str(out), small_model())
        manifest = json.loads((out / "manifest.json").read_text())
        del manifest[key]
        (out / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(IntegrityError):
            serial.verify_bundle(str(out))

    @pytest.mark.parametrize("edit", [
        lambda meta: "{not json",
        lambda meta: "[1, 2]",
        lambda meta: json.dumps({k: v for k, v in meta.items() if k != "M"}),
        lambda meta: json.dumps({**meta, "grid_times": "abc"}),
        lambda meta: json.dumps({**meta, "reports": [{"index": 0}]}),
        lambda meta: json.dumps({**meta, "synced_dims": [1e999, 1]}),
        lambda meta: json.dumps({**meta, "out_spaces": [{"kind": "sobolev", "dim": 1}]}),
    ])
    def test_model_json(self, tmp_path, edit):
        out = tmp_path / "bundle"
        serial.save_bundle(str(out), small_model())
        meta = json.loads((out / "model.json").read_text())
        (out / "model.json").write_text(edit(meta))
        rehash(out)
        with pytest.raises(IntegrityError, match="model.json"):
            serial.load_bundle(str(out))

    @pytest.mark.parametrize("header", [b"{not json", b"[]",
                                        b'{"schema_version": 1}',
                                        b'{"schema_version": 1, "P": 1, "Q": 1, "T": "x", '
                                        b'"hyper_dims": [2, 2], "hyper_activation": "relu"}'])
    def test_weave_header(self, tmp_path, header):
        p = tmp_path / "w.bin"
        p.write_bytes(serial.WEAVE_MAGIC + header + b"\n" + bytes(64))
        with pytest.raises(IntegrityError, match="w.bin"):
            serial.load_weave(str(p))

    @pytest.mark.parametrize("header", [b"{not json", b'"text"', b'{"schema_version": 1}',
                                        b'{"schema_version": 1, "dims": [0], "activation": "relu"}'])
    def test_net_header(self, tmp_path, header):
        p = tmp_path / "m.net"
        p.write_bytes(serial.NET_MAGIC + header + b"\n")
        with pytest.raises(IntegrityError, match="m.net"):
            serial.load_net(str(p))


@pytest.fixture(scope="module")
def saved_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "bundle"
    model = small_model()
    serial.save_bundle(str(out), model)
    return out, {name: (out / name).read_bytes()
                 for name in ("manifest.json",) + serial.BUNDLE_FILES}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(["manifest.json", "model.json", "weave.bin"]),
       cut=st.floats(0.0, 1.0), flips=st.lists(st.tuples(st.floats(0.0, 1.0),
                                                         st.integers(1, 255)), max_size=3),
       rehashed=st.booleans())
def test_fuzzed_bundle_raises_only_integrity_errors(saved_bundle, tmp_path_factory,
                                                    name, cut, flips, rehashed):
    """Truncate and flip bytes of one bundle file, with or without fixing the
    manifest's hashes: loading either raises IntegrityError or, when the
    hashed files are intact, returns the saved model."""
    source, files = saved_bundle
    out = tmp_path_factory.mktemp("case")
    blob = bytearray(files[name])
    blob = blob[: int(cut * len(blob))] if cut < 1.0 else blob
    for at, mask in flips:
        if blob:
            blob[min(int(at * len(blob)), len(blob) - 1)] ^= mask
    for other, data in files.items():
        (out / other).write_bytes(bytes(blob) if other == name else data)
    if rehashed and name != "manifest.json":
        rehash(out)
    try:
        loaded = serial.load_bundle(str(out))
    except IntegrityError:
        return
    if name != "manifest.json" and bytes(blob) != files[name]:
        return  # rehashed: a changed but well-formed file loads as what it says
    reference = serial.load_bundle(str(source))
    assert np.array_equal(loaded.weave_model.hyper_theta, reference.weave_model.hyper_theta)
    assert np.array_equal(loaded.weave_model.codes, reference.weave_model.codes)
    assert loaded.synced_spec == reference.synced_spec
