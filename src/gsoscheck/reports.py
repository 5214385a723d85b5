"""Machine-readable reports with stable field names.

A report captures enough to re-run its command deterministically: the
command echo, the full configuration including the seed, the verdict and
the witness.  `replay` re-executes the command and compares everything but
the wall time.  A command fills in its outcome; ``cli.execute`` sets the
command echo and the wall time of the whole command line.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Optional

from .terms import IllFormed

TOOL_VERSION = "0.1.0"

REPLAY_IGNORED = ("wall_time_s",)


@dataclass
class Report:
    config: dict
    verdict: str
    witness: Optional[dict] = None
    tallies: dict = field(default_factory=dict)
    command: list = field(default_factory=list)
    wall_time_s: float = 0.0
    tool_version: str = TOOL_VERSION

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def matches(self, other: "Report") -> bool:
        a, b = asdict(self), asdict(other)
        for key in REPLAY_IGNORED:
            a.pop(key, None)
            b.pop(key, None)
        return a == b


def read_json(path: str):
    """The JSON value in the file at ``path``; a file that cannot be read,
    is not UTF-8 or is not JSON is a usage error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
        raise IllFormed(f"cannot read JSON from {path}: {err}") from None


def load_report(path: str) -> Report:
    data = read_json(path)
    if not isinstance(data, dict):
        raise IllFormed(f"report {path} is not a JSON object")
    command = data.get("command")
    if not isinstance(command, list) or not all(isinstance(a, str) for a in command):
        raise IllFormed(f"report {path}: command is not a list of strings")
    try:
        return Report(
            command=command,
            config=data.get("config", {}),
            verdict=data["verdict"],
            witness=data.get("witness"),
            tallies=data.get("tallies", {}),
            wall_time_s=data.get("wall_time_s", 0.0),
            tool_version=data.get("tool_version", TOOL_VERSION),
        )
    except KeyError as err:
        raise IllFormed(f"report {path} has no {err} field") from None
