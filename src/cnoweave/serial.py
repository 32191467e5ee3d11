"""Binary persistence for networks, weaves, and model bundles.

Formats are versioned and bit-exact on round trip: a magic line, one JSON
header line, then little-endian 8-byte floats in flat layout order.  Every
way a stored file can be malformed raises :class:`IntegrityError`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os

import numpy as np

from . import cno, net, spaces, weave
from .errors import IntegrityError

__all__ = [
    "canonical_json",
    "sha256_bytes",
    "sha256_file",
    "save_net",
    "load_net",
    "save_weave",
    "load_weave",
    "write_manifest",
    "save_bundle",
    "load_bundle",
    "verify_bundle",
]

NET_MAGIC = b"CNOWEAVE-NET v1\n"
WEAVE_MAGIC = b"CNOWEAVE-WEAVE v1\n"
SCHEMA_VERSION = 1
WEAVE_FILE, MODEL_FILE = BUNDLE_FILES = ("weave.bin", "model.json")


def canonical_json(obj) -> str:
    """Deterministic JSON used for hashing configs and headers."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return sha256_bytes(fh.read())


def _parse_json(data: bytes, where: str) -> dict:
    """The JSON object in ``data``; anything else is an IntegrityError naming
    ``where``."""
    try:
        obj = json.loads(data)
    except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
        raise IntegrityError(f"{where}: not JSON ({e})") from e
    if not isinstance(obj, dict):
        raise IntegrityError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    return obj


@contextlib.contextmanager
def _fields_of(where: str):
    """Report a missing, ill-typed or invalid stored field read inside the
    block as an IntegrityError naming ``where``."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise IntegrityError(f"{where}: malformed field ({type(e).__name__}: {e})") from e


def _floats_to_bytes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def _floats_from_bytes(data: bytes, count: int) -> np.ndarray:
    arr = np.frombuffer(data[: 8 * count], dtype="<f8").astype(np.float64)
    return arr


def save_net(path: str, spec: net.NetSpec, theta: np.ndarray):
    header = {"dims": list(spec.dims), "activation": spec.activation,
              "schema_version": SCHEMA_VERSION}
    with open(path, "wb") as fh:
        fh.write(NET_MAGIC)
        fh.write(canonical_json(header).encode() + b"\n")
        fh.write(_floats_to_bytes(np.asarray(theta)))


def load_net(path: str):
    with open(path, "rb") as fh:
        magic = fh.readline()
        if magic != NET_MAGIC:
            raise IntegrityError(f"{path}: bad magic {magic!r}")
        header = _parse_json(fh.readline(), path)
        if header.get("schema_version") != SCHEMA_VERSION:
            raise IntegrityError(f"{path}: unknown schema {header.get('schema_version')}")
        with _fields_of(path):
            spec = net.NetSpec(tuple(header["dims"]), header["activation"])
        data = fh.read()
    count = net.param_count(spec)
    if len(data) != 8 * count:
        raise IntegrityError(f"{path}: expected {8 * count} payload bytes, got {len(data)}")
    return spec, _floats_from_bytes(data, count)


def save_weave(path: str, w: weave.WeaveModel):
    header = {
        "P": w.P, "Q": w.Q, "T": w.T, "delta": w.delta, "R": w.R,
        "M_T": w.M_T, "seed": w.seed,
        "hyper_dims": list(w.hyper_spec.dims),
        "hyper_activation": w.hyper_spec.activation,
        "schema_version": SCHEMA_VERSION,
    }
    with open(path, "wb") as fh:
        fh.write(WEAVE_MAGIC)
        fh.write(canonical_json(header).encode() + b"\n")
        fh.write(_floats_to_bytes(w.packing.points))
        fh.write(_floats_to_bytes(w.codes))
        fh.write(_floats_to_bytes(w.hyper_theta))


def load_weave(path: str) -> weave.WeaveModel:
    with open(path, "rb") as fh:
        magic = fh.readline()
        if magic != WEAVE_MAGIC:
            raise IntegrityError(f"{path}: bad magic {magic!r}")
        header = _parse_json(fh.readline(), path)
        if header.get("schema_version") != SCHEMA_VERSION:
            raise IntegrityError(f"{path}: unknown schema {header.get('schema_version')}")
        data = fh.read()
    with _fields_of(path):
        P, Q, T = header["P"], header["Q"], header["T"]
        hyper_spec = net.NetSpec(tuple(header["hyper_dims"]), header["hyper_activation"])
        n_pack = T * Q
        n_codes = T * (P + Q)
        n_theta = net.param_count(hyper_spec)
        expected = 8 * (n_pack + n_codes + n_theta)
        if len(data) != expected:
            raise IntegrityError(f"{path}: expected {expected} payload bytes, got {len(data)}")
        pos = 0
        points = _floats_from_bytes(data[pos:], n_pack).reshape(T, Q)
        pos += 8 * n_pack
        codes = _floats_from_bytes(data[pos:], n_codes).reshape(T, P + Q)
        pos += 8 * n_codes
        theta = _floats_from_bytes(data[pos:], n_theta)
        packing = weave.Packing(Q, header["R"], header["delta"], points)
        return weave.WeaveModel(
            Q=Q, P=P, M_T=header["M_T"], delta=header["delta"], R=header["R"],
            packing=packing, codes=codes, hyper_spec=hyper_spec, hyper_theta=theta,
            seed=header["seed"],
        )


def write_manifest(out_dir: str, config: dict, files, timings: dict) -> dict:
    """Write ``out_dir/manifest.json`` and return it: the schema version, the
    config and its hash, the SHA-256 of each named file, and the timings."""
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "config": config,
        "config_hash": sha256_bytes(canonical_json(config).encode()),
        "files": {name: sha256_file(os.path.join(out_dir, name)) for name in files},
        "timings": timings,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2))
    return manifest


def save_bundle(out_dir: str, model: cno.CnoModel, config: dict = None,
                timings: dict = None) -> dict:
    """Write a model bundle directory and return its manifest."""
    os.makedirs(out_dir, exist_ok=True)
    save_weave(os.path.join(out_dir, WEAVE_FILE), model.weave_model)
    meta = {
        "schema_version": SCHEMA_VERSION,
        "grid_times": [float(t) for t in model.grid.times],
        "M": model.M,
        "step_dim": model.step_dim,
        "out_dim": model.out_dim,
        "synced_dims": list(model.synced_spec.dims),
        "synced_activation": model.synced_spec.activation,
        "Q": model.Q,
        "delta": model.delta,
        "seed": model.seed,
        "out_spaces": [s.describe() for s in model.out_spaces],
        "reports": [
            {"index": r.index, "error": r.error, "gate": r.gate,
             "shortfall": r.shortfall, "seed": r.seed, "epochs": r.epochs}
            for r in model.reports
        ],
    }
    with open(os.path.join(out_dir, MODEL_FILE), "w") as fh:
        fh.write(canonical_json(meta))
    return write_manifest(out_dir, config or {}, BUNDLE_FILES, timings or {})


def verify_bundle(bundle_dir: str) -> dict:
    """Check that the manifest lists exactly the bundle's files and that every
    hash matches; raise on any difference."""
    manifest_path = os.path.join(bundle_dir, "manifest.json")
    if not os.path.exists(manifest_path):
        raise IntegrityError(f"{bundle_dir}: missing manifest.json")
    with open(manifest_path, "rb") as fh:
        manifest = _parse_json(fh.read(), manifest_path)
    if manifest.get("schema_version") != SCHEMA_VERSION:
        raise IntegrityError(f"unknown manifest schema {manifest.get('schema_version')}")
    missing = sorted({"config", "config_hash", "files", "timings"} - manifest.keys())
    if missing:
        raise IntegrityError(f"{manifest_path}: missing keys {missing}")
    files = manifest["files"]
    if not isinstance(files, dict) or sorted(files) != sorted(BUNDLE_FILES):
        raise IntegrityError(f"the manifest must list exactly the files {list(BUNDLE_FILES)}")
    for name, expected in files.items():
        path = os.path.join(bundle_dir, name)
        if not os.path.exists(path):
            raise IntegrityError(f"{name}: file missing from bundle")
        actual = sha256_file(path)
        if actual != expected:
            raise IntegrityError(f"{name}: hash mismatch (expected {expected}, got {actual})")
    return manifest


def load_bundle(bundle_dir: str) -> cno.CnoModel:
    verify_bundle(bundle_dir)
    with open(os.path.join(bundle_dir, MODEL_FILE), "rb") as fh:
        meta = _parse_json(fh.read(), MODEL_FILE)
    wmodel = load_weave(os.path.join(bundle_dir, WEAVE_FILE))
    with _fields_of(MODEL_FILE):
        synced_spec = net.NetSpec(tuple(meta["synced_dims"]), meta["synced_activation"])
        if net.param_count(synced_spec) != wmodel.P:
            raise IntegrityError(
                f"{MODEL_FILE}: synced dims hold {net.param_count(synced_spec)} parameters, "
                f"{WEAVE_FILE} stores P={wmodel.P}"
            )
        return cno.CnoModel(
            weave_model=wmodel,
            synced_spec=synced_spec,
            grid=cno.TimeGrid(np.array(meta["grid_times"])),
            M=meta["M"],
            step_dim=meta["step_dim"],
            out_dim=meta["out_dim"],
            out_spaces=[spaces.from_description(d) for d in meta["out_spaces"]],
            reports=[cno.WindowReport(**r) for r in meta["reports"]],
            Q=meta["Q"],
            delta=meta["delta"],
            seed=meta["seed"],
        )
