"""Run manifests: every emitted report carries the context to re-run it.

``cli`` writes the manifest of each report: the resolved command line, the
full parameter snapshot, the input fingerprint and the seed. Timestamps
live only there, so byte comparisons of reports may strip the manifest's
timestamps and expect equality everywhere else. ``replay_manifest``
re-executes the recorded command, optionally into a different output
directory.
"""

from __future__ import annotations


def strip_timestamps(document: dict) -> dict:
    """Copy of a report document with manifest timestamps removed, for
    determinism comparisons."""
    out = dict(document)
    if isinstance(out.get("manifest"), dict):
        m = dict(out["manifest"])
        m.pop("timestamps", None)
        out["manifest"] = m
    return out


def replay_manifest(manifest: dict, out_dir: str | None = None) -> int:
    """Re-run the command a manifest records; returns the exit code.

    The stored argv is replayed verbatim except that --out-dir is replaced
    when ``out_dir`` is given, so a replay can write next to, rather than
    over, the original outputs.
    """
    from .cli import main

    argv = list(manifest["argv"])
    if out_dir is not None:
        if "--out-dir" in argv:
            pos = argv.index("--out-dir")
            argv[pos + 1] = out_dir
        else:
            argv += ["--out-dir", out_dir]
    return main(argv)
