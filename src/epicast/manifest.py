"""Run manifests: every emitted report carries the context to re-run it.

A manifest records the resolved command line, the full parameter snapshot,
the input fingerprint and the seed. Timestamps live only here, so byte
comparisons of reports may strip the manifest's timestamps and expect
equality everywhere else. ``replay_manifest`` re-executes the recorded
command, optionally into a different output directory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


@dataclass
class RunManifest:
    command: str
    argv: list[str]
    config: dict
    input_fingerprint: dict | None = None
    seed: int | None = None
    tool_version: str = ""
    timestamps: dict = field(default_factory=dict)

    @classmethod
    def start(
        cls,
        command: str,
        argv: list[str],
        config: dict,
        *,
        seed: int | None = None,
    ) -> "RunManifest":
        """A manifest started now; input_fingerprint is set once the input
        has been read."""
        from . import __version__

        return cls(
            command=command,
            argv=list(argv),
            config=config,
            seed=seed,
            tool_version=__version__,
            timestamps={"started": _now()},
        )

    def finish(self) -> "RunManifest":
        self.timestamps["finished"] = _now()
        return self

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "argv": self.argv,
            "config": self.config,
            "input_fingerprint": self.input_fingerprint,
            "seed": self.seed,
            "tool_version": self.tool_version,
            "timestamps": self.timestamps,
        }


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
