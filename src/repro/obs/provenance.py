"""Run provenance manifests.

Every cached simulation result and every generated report can carry a
sidecar ``*.manifest.json`` answering "what exactly produced this number?":
the canonical experiment configuration and its hash, the policy and its
kwargs, the seed, a digest of the simulator source
(:func:`repro.eval.parallel.code_version`), the git revision, host,
platform and wall time.  Manifests are plain JSON — diffable, greppable,
and stable across processes.
"""

from __future__ import annotations

import getpass
import hashlib
import json
import logging
import os
import platform
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional, Union

__all__ = [
    "MANIFEST_SCHEMA",
    "build_manifest",
    "config_hash",
    "git_revision",
    "manifest_path_for",
    "write_manifest",
]

logger = logging.getLogger(__name__)

#: Bump when the manifest layout changes.
MANIFEST_SCHEMA = "repro-manifest/1"

_git_rev_memo: Optional[str] = None

#: Set after the first resolution so *spawned worker processes* inherit
#: the answer through their environment instead of each paying a
#: ``git rev-parse`` subprocess on their first manifest write (a matrix
#: run fans out hundreds of manifest-writing jobs).
GIT_REVISION_ENV = "REPRO_GIT_REVISION"


def git_revision() -> str:
    """The repository HEAD revision, or ``"unknown"`` outside a checkout.

    Cached per process (one subprocess spawn, ever) and propagated to
    child processes via ``$REPRO_GIT_REVISION``; never raises.
    """
    global _git_rev_memo
    if _git_rev_memo is not None:
        return _git_rev_memo
    env = os.environ.get(GIT_REVISION_ENV)
    if env:
        _git_rev_memo = env
        return _git_rev_memo
    root = Path(__file__).resolve().parent
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=5,
        )
        rev = proc.stdout.strip() if proc.returncode == 0 else ""
    except (OSError, subprocess.SubprocessError):
        rev = ""
    _git_rev_memo = rev or "unknown"
    os.environ.setdefault(GIT_REVISION_ENV, _git_rev_memo)
    return _git_rev_memo


def _reset_git_revision_memo() -> None:
    """Test hook: forget the per-process memo (and the env propagation)."""
    global _git_rev_memo
    _git_rev_memo = None
    os.environ.pop(GIT_REVISION_ENV, None)


def _canonical_config(config) -> object:
    """Canonical JSON-ready form of a config (reuses the cache-key logic)."""
    if config is None:
        return None
    from ..eval.parallel import _canonical  # lazy: avoid import cycles

    return _canonical(config)


def config_hash(config) -> Optional[str]:
    """Stable short hash of an :class:`ExperimentConfig` (or ``None``)."""
    canonical = _canonical_config(config)
    if canonical is None:
        return None
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def build_manifest(
    config=None,
    policy: Optional[str] = None,
    policy_kwargs: Optional[dict] = None,
    seed: Optional[int] = None,
    wall_time_sec: Optional[float] = None,
    extra: Optional[dict] = None,
) -> dict:
    """Assemble a provenance manifest dict.

    ``extra`` entries are merged at the top level (benchmark, simpoint,
    cache key, output paths, ...); they must not collide with the standard
    fields.

    The ``kernels`` field records the transition-table kernel provenance
    (:func:`repro.kernels.kernel_provenance`): whether the process ran on
    precomputed LUTs or reference bit-walks, compile counts and compile
    cache behaviour — enough to explain perf differences between runs.
    """
    from ..eval.parallel import _canonical, code_version  # lazy import
    from ..kernels import kernel_provenance  # lazy: avoid import cycles

    if seed is None and config is not None:
        seed = getattr(config, "seed", None)
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime()),
        "host": socket.gethostname(),
        "user": _safe_user(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "pid": os.getpid(),
        "argv": list(sys.argv),
        "code_version": code_version(),
        "git_revision": git_revision(),
        "config": _canonical_config(config),
        "config_hash": config_hash(config),
        "policy": policy,
        "policy_kwargs": _canonical(dict(policy_kwargs or {})),
        "seed": seed,
        "wall_time_sec": wall_time_sec,
        "kernels": kernel_provenance(),
    }
    if extra:
        for key, value in extra.items():
            if key in manifest:
                raise ValueError(f"extra field {key!r} collides with manifest")
            manifest[key] = value
    return manifest


def _safe_user() -> str:
    try:
        return getpass.getuser()
    except (KeyError, OSError):  # pragma: no cover - no passwd entry
        return "unknown"


def manifest_path_for(path: Union[str, Path]) -> Path:
    """Sidecar manifest path for an artifact (``x.json`` → ``x.manifest.json``)."""
    path = Path(path)
    suffix = path.suffix
    if suffix == ".json" and path.name.endswith(".manifest.json"):
        return path
    stem = path.name[: -len(suffix)] if suffix else path.name
    return path.with_name(f"{stem}.manifest.json")


def write_manifest(path: Union[str, Path], manifest: dict) -> Path:
    """Atomically write ``manifest`` as the sidecar of ``path``.

    Returns the manifest path.  Failures are logged, not raised — a run
    must never die because its provenance record could not be written.
    """
    target = manifest_path_for(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, target)
    except OSError as exc:  # pragma: no cover - unwritable target
        logger.warning("could not write manifest %s: %s", target, exc)
        try:
            tmp.unlink()
        except OSError:
            pass
    return target
