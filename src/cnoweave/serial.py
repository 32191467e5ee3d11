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
    "open_bundle",
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


def _read_file(path: str) -> bytearray:
    """The bytes of the file at ``path`` in a buffer of their own; the spare
    byte keeps a file that grew while being read longer than its size."""
    with open(path, "rb") as fh:
        data = bytearray(os.fstat(fh.fileno()).st_size + 1)
        del data[fh.readinto(data):]
    return data


def sha256_file(path: str) -> str:
    return sha256_bytes(_read_file(path))


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


def _write_record(path: str, magic: bytes, header: dict, blocks):
    """Write a record: the magic line, the JSON header line (with the schema
    version), then each block as little-endian float64 in C order."""
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(canonical_json({**header, "schema_version": SCHEMA_VERSION}).encode() + b"\n")
        for block in blocks:
            fh.write(np.ascontiguousarray(block, dtype="<f8").data)


def _read_record(data: bytearray, path: str, magic: bytes, layout):
    """Parse ``data``, the bytes of the record file ``path``: return its
    header, what ``layout`` parsed from the header, and its float64 blocks.

    ``layout(header)`` returns a parsed value and the number of floats in
    each block.  Each block is a view into ``data``, whose payload is first
    moved down in place onto an 8-byte boundary: numpy runs arithmetic on
    unaligned floats through its slow paths."""
    line_end = data.find(b"\n") + 1 or len(data)
    if data[:line_end] != magic:
        raise IntegrityError(f"{path}: bad magic {bytes(data[:line_end])!r}")
    offset = data.find(b"\n", line_end) + 1 or len(data)
    header = _parse_json(data[line_end:offset], path)
    if header.get("schema_version") != SCHEMA_VERSION:
        raise IntegrityError(f"{path}: unknown schema {header.get('schema_version')}")
    with _fields_of(path):
        parsed, sizes = layout(header)
        if not all(type(n) is int and n >= 0 for n in sizes):
            raise ValueError(f"block sizes {sizes} are not counts")
    expected = 8 * sum(sizes)
    if len(data) - offset != expected:
        raise IntegrityError(f"{path}: expected {expected} payload bytes, "
                             f"got {len(data) - offset}")
    aligned = offset - offset % 8
    view = memoryview(data)
    view[aligned : aligned + expected] = view[offset:]  # a memmove
    offset = aligned
    blocks = []
    for n in sizes:
        blocks.append(np.frombuffer(data, "<f8", n, offset))
        offset += 8 * n
    return header, parsed, blocks


def save_net(path: str, spec: net.NetSpec, theta: np.ndarray):
    _write_record(path, NET_MAGIC,
                  {"dims": list(spec.dims), "activation": spec.activation}, [theta])


def load_net(path: str):
    def layout(h):
        spec = net.NetSpec(tuple(h["dims"]), h["activation"])
        return spec, [net.param_count(spec)]

    _, spec, (theta,) = _read_record(_read_file(path), path, NET_MAGIC, layout)
    return spec, theta


def save_weave(path: str, w: weave.WeaveModel):
    header = {
        "P": w.P, "Q": w.Q, "T": w.T, "delta": w.delta, "R": w.R,
        "M_T": w.M_T, "seed": w.seed,
        "hyper_dims": list(w.hyper_spec.dims),
        "hyper_activation": w.hyper_spec.activation,
    }
    _write_record(path, WEAVE_MAGIC, header,
                  [w.packing.points, w.codes, w.hyper_theta])


def load_weave(path: str) -> weave.WeaveModel:
    return _parse_weave(_read_file(path), path)


def _parse_weave(data: bytearray, path: str) -> weave.WeaveModel:
    """The weave in ``data``, the bytes of the weave file ``path``, whose
    points block must repeat its codes' packing coordinates byte for byte.
    The codes are as wide as the hypernetwork's input, which the weave
    checks against its layout."""
    def layout(h):
        spec = net.NetSpec(tuple(h["hyper_dims"]), h["hyper_activation"])
        return spec, [h["T"] * h["Q"], h["T"] * spec.d_in, net.param_count(spec)]

    h, hyper_spec, (points, codes, theta) = _read_record(data, path, WEAVE_MAGIC, layout)
    with _fields_of(path):
        w = weave.WeaveModel(
            Q=h["Q"], P=h["P"], M_T=h["M_T"], delta=h["delta"], R=h["R"],
            codes=codes.reshape(h["T"], hyper_spec.d_in), hyper_spec=hyper_spec,
            hyper_theta=theta, seed=h["seed"],
        )
    if points.tobytes() != w.packing.points.tobytes():
        raise IntegrityError(f"{path}: the points block differs from the codes' "
                             f"packing coordinates")
    return w


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


def verify_bundle(bundle_dir: str) -> tuple:
    """Check that the manifest lists exactly the bundle's files and that every
    hash matches; raise on any difference.  Return the manifest and a map of
    each file's name to its bytes, read once and hashed as read, so that a
    caller parses what was hashed."""
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
    contents = {}
    for name, expected in files.items():
        path = os.path.join(bundle_dir, name)
        if not os.path.exists(path):
            raise IntegrityError(f"{name}: file missing from bundle")
        contents[name] = _read_file(path)
        actual = sha256_bytes(contents[name])
        if actual != expected:
            raise IntegrityError(f"{name}: hash mismatch (expected {expected}, got {actual})")
    return manifest, contents


def load_bundle(bundle_dir: str) -> cno.CnoModel:
    """The model of a bundle directory; see :func:`open_bundle`."""
    return open_bundle(bundle_dir)[1]


def open_bundle(bundle_dir: str) -> tuple:
    """``(manifest, model)`` of a bundle directory, each file read and hashed
    once.

    The bundle must pass :func:`verify_bundle`, its ``model.json`` must
    describe its weave, and the weave must pass the successor gate that
    construction ran; anything else raises IntegrityError."""
    manifest, contents = verify_bundle(bundle_dir)
    meta = _parse_json(contents.pop(MODEL_FILE), MODEL_FILE)
    wmodel = _parse_weave(contents[WEAVE_FILE], os.path.join(bundle_dir, WEAVE_FILE))
    # a model.json that disagrees with its weave fails CnoModel's own checks
    with _fields_of(MODEL_FILE):
        model = cno.CnoModel(
            weave_model=wmodel,
            synced_spec=net.NetSpec(tuple(meta["synced_dims"]), meta["synced_activation"]),
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
    # a weave.bin rewritten and re-hashed must still memorize its codes
    wmodel.check_successors()
    return manifest, model
