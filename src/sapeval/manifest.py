"""Run manifests and atomic file output.

Every CLI command records what it ran: the resolved configuration, digests
of its inputs and outputs, the seed, the tool version, and the Python and
numpy versions. Re-running the recorded command reproduces the outputs byte
for byte. Output files are written to a temporary sibling and renamed into
place, so a failed run never leaves a partial file behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping

import numpy as np


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_atomic(path: str | Path, content: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def json_text(payload) -> str:
    """``payload`` as the indented, key-sorted JSON every output uses."""
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def file_digests(paths: Mapping[str, str | Path]) -> dict[str, str]:
    """The SHA-256 of each named file, in name order."""
    return {name: sha256_file(p) for name, p in sorted(paths.items())}


def write_manifest(
    path: str | Path,
    command: str,
    config: Mapping,
    input_digests: Mapping[str, str],
    outputs: Mapping[str, str | Path],
    seed: int | None,
) -> None:
    """Write the run manifest to ``path``: the digests of the inputs, which
    the caller takes (:func:`file_digests`) before it writes any output, and
    of the outputs, hashed here, and the Python and numpy versions run."""
    from . import __version__

    write_atomic(path, json_text({
        "command": command,
        "config": dict(config),
        "inputs": dict(input_digests),
        "outputs": file_digests(outputs),
        "seed": seed,
        "version": __version__,
        "environment": {"python": platform.python_version(), "numpy": np.__version__},
        "created": datetime.now(timezone.utc).isoformat(),
    }))
