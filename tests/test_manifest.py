import hashlib
import json
import platform

import numpy as np

from sapeval.manifest import file_digests, json_text, sha256_file, write_atomic, write_manifest


def test_write_atomic_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out" / "file.txt"
    write_atomic(target, "hello\n")
    assert target.read_text() == "hello\n"
    write_atomic(target, "replaced\n")
    assert target.read_text() == "replaced\n"
    assert [p.name for p in target.parent.iterdir()] == ["file.txt"]


def test_sha256_matches_hashlib(tmp_path):
    path = tmp_path / "blob.bin"
    path.write_bytes(b"\x00\x01payload")
    assert sha256_file(path) == hashlib.sha256(b"\x00\x01payload").hexdigest()


def test_json_atomic_round_trip(tmp_path):
    path = tmp_path / "payload.json"
    payload = {"b": [1, 2.5], "a": {"nested": None}}
    write_atomic(path, json_text(payload))
    assert json.loads(path.read_text()) == payload
    assert path.read_text() == json.dumps(payload, indent=1, sort_keys=True) + "\n"


def test_write_manifest_fields(tmp_path):
    inp = tmp_path / "in.txt"
    out = tmp_path / "out.txt"
    inp.write_text("x")
    out.write_text("y")
    path = tmp_path / "run_manifest.json"
    write_manifest(path, "demo", {"flag": 1}, file_digests({"in": inp}), {"out": out}, seed=9)
    manifest = json.loads(path.read_text())
    assert manifest["command"] == "demo"
    assert manifest["config"] == {"flag": 1}
    assert manifest["inputs"] == {"in": sha256_file(inp)}
    assert manifest["outputs"] == {"out": sha256_file(out)}
    assert manifest["seed"] == 9
    assert manifest["version"]
    assert manifest["environment"] == {"python": platform.python_version(),
                                       "numpy": np.__version__}
    assert "created" in manifest
