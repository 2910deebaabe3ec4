"""Dump the perf microbenchmarks to a JSON artifact at the repo root.

Runs ``benchmarks/test_perf_microbench.py`` and
``benchmarks/test_perf_serve.py`` under pytest-benchmark and writes
the machine-readable results to ``BENCH_PR<n>.json`` so the repository
carries a perf trajectory across PRs::

    python benchmarks/run_microbench.py            # -> BENCH_PR1.json
    python benchmarks/run_microbench.py --pr 2     # -> BENCH_PR2.json

``--backends`` adds an A/B axis over the kernel backends: each named
backend gets its own pytest pass (selected through ``REPRO_BACKEND``),
and the merged artifact tags every non-default backend's entries as
``test_name[backend]`` — the default backend keeps the bare names so
the cross-PR trend series (see ``benchmarks/trend_check.py``) stays
contiguous::

    python benchmarks/run_microbench.py --pr 7 --backends numpy64,numpy32

Backends that cannot run here (e.g. ``cnative`` without a C compiler)
are skipped with a notice instead of silently benchmarking the
fallback. The first corpus build takes a couple of minutes; it is
cached under ``.corpus_cache/`` and subsequent runs reload in
milliseconds.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_BACKEND = "numpy64"


def machine_fingerprint() -> dict:
    """Identity stamp for the machine that produced an artifact.

    Benchmarks from different machines are not comparable points on one
    trend line; ``trend_check.py --strict`` uses this stamp to restrict
    each series to same-machine history. The hostname is hashed — the
    artifact is committed to the repo, and the identity only needs to be
    *stable*, not readable.
    """
    import hashlib
    import socket

    import numpy

    host = hashlib.sha256(socket.gethostname().encode()).hexdigest()[:12]
    cpus = os.cpu_count() or 0
    return {"hostname_hash": host, "cpu_count": cpus,
            "numpy": numpy.__version__,
            "fingerprint": f"{host}-c{cpus}-np{numpy.__version__}"}


def _available_backends() -> list[str]:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.nn import backend as nn_backend
        return nn_backend.available_backends()
    finally:
        sys.path.pop(0)


def _run_one(backend: str, out: Path) -> int:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["REPRO_BACKEND"] = backend
    cmd = [sys.executable, "-m", "pytest",
           str(REPO_ROOT / "benchmarks" / "test_perf_microbench.py"),
           str(REPO_ROOT / "benchmarks" / "test_perf_serve.py"),
           "-q", f"--benchmark-json={out}"]
    print(f"+ REPRO_BACKEND={backend}", " ".join(cmd))
    return subprocess.run(cmd, cwd=REPO_ROOT, env=env).returncode


def _merge(parts: dict[str, Path], out: Path) -> None:
    merged: dict | None = None
    for backend, part in parts.items():
        payload = json.loads(part.read_text())
        for bench in payload.get("benchmarks", []):
            bench.setdefault("extra_info", {})["backend"] = backend
            if backend != DEFAULT_BACKEND:
                bench["name"] = f"{bench['name']}[{backend}]"
                bench["fullname"] = f"{bench.get('fullname', bench['name'])}" \
                                    f"[{backend}]"
        if merged is None:
            merged = payload
            merged["backends"] = list(parts)
        else:
            merged["benchmarks"].extend(payload.get("benchmarks", []))
    merged["machine"] = machine_fingerprint()
    out.write_text(json.dumps(merged, indent=2) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pr", type=int, default=1,
                        help="PR number used in the artifact name")
    parser.add_argument("--out", type=Path, default=None,
                        help="explicit output path (overrides --pr)")
    parser.add_argument("--backends", default=DEFAULT_BACKEND,
                        help="comma-separated kernel backends to A/B "
                             "(default: just the default backend)")
    args = parser.parse_args()
    out = args.out or REPO_ROOT / f"BENCH_PR{args.pr}.json"

    requested = [b.strip() for b in args.backends.split(",") if b.strip()]
    available = _available_backends()
    backends = []
    for name in dict.fromkeys(requested):
        if name in available:
            backends.append(name)
        else:
            print(f"skipping backend {name!r}: unavailable here "
                  f"(available: {', '.join(available)})")
    if not backends:
        print("no requested backend is available; nothing to run")
        return 1

    parts: dict[str, Path] = {}
    for backend in backends:
        part = out.with_suffix(f".{backend}.part.json")
        code = _run_one(backend, part)
        if code != 0 or not part.exists():
            return code or 1
        parts[backend] = part
    _merge(parts, out)
    for part in parts.values():
        part.unlink()
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
