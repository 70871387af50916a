"""Run manifests: enough metadata to replay any command bit for bit.

A manifest records the command name, the command line as given
(``argv``), the parsed parameters that line produced, the seed, tool
version, wall-clock start/end stamps, and a SHA-256 digest per output
file.  Replaying ``argv`` through the command-line parser with the same
tool version must reproduce every digest; the timestamps are
documentation and take no part in that contract.  Manifests written
before 0.2.0 carry no ``argv`` and are refused by ``load``.  Manifests
are strict JSON: a NaN or infinite parameter is refused before the run,
and an undefined value is recorded as null.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone

from . import __version__

_REQUIRED = ("tool_version", "command", "argv", "parameters", "seed")


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%fZ")


@dataclass(kw_only=True)
class RunManifest:
    """The saved schema: the fields, in the saved key order."""

    tool_version: str = __version__
    command: str
    seed: int
    argv: list
    parameters: dict
    started_utc: str = ""
    finished_utc: str = ""
    outputs: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        try:
            json.dumps(self.parameters, allow_nan=False)
        except ValueError:
            raise ValueError(
                f"{self.command}: a NaN or infinite parameter cannot be recorded"
            ) from None

    def add_output(self, name: str, path) -> None:
        self.outputs.append({"name": name, "sha256": sha256_file(path)})

    def save(self, path) -> None:
        """Write strict JSON; ValueError, before the file is opened, for a
        NaN or infinity, which JSON cannot hold."""
        text = json.dumps(asdict(self), indent=2, allow_nan=False)
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text + "\n")

    @classmethod
    def load(cls, path) -> "RunManifest":
        """Read a manifest; ValueError if it does not follow the schema."""
        with open(path, "r", encoding="ascii") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: a manifest must be a JSON object")
        missing = [key for key in _REQUIRED if key not in raw]
        if missing:
            raise ValueError(
                f"{path}: manifest (tool version {raw.get('tool_version')}) lacks "
                f"{', '.join(missing)}; only manifests from 0.2.0 on can be replayed"
            )
        if not (isinstance(raw["argv"], list) and all(isinstance(a, str) for a in raw["argv"])):
            raise ValueError(f"{path}: manifest argv must be a list of strings")
        return cls(**{f.name: raw[f.name] for f in fields(cls) if f.name in raw})
