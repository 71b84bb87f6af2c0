"""Append-only JSONL result cache with per-line checksums.

One record per line; keys are sorted so identical inputs at the same library
version produce byte-identical lines.  Corrupt lines (not JSON, not a record
object with a payload object, or a checksum mismatch) are skipped with a
warning; records of another library version are never served.
"""
from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

SCHEMA_VERSION = 1


@dataclass
class ResultRecord:
    command: str
    inputs: dict
    payload: dict
    wall_time_ms: int = 0
    library_version: str = ""
    schema_version: int = SCHEMA_VERSION

    def body(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "command": self.command,
            "inputs": self.inputs,
            "payload": self.payload,
            "wall_time_ms": self.wall_time_ms,
            "library_version": self.library_version,
        }

    def to_line(self) -> str:
        body = json.dumps(self.body(), sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        return json.dumps(
            {"record": json.loads(body), "sha256": digest},
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_line(cls, line: str) -> "ResultRecord":
        outer = json.loads(line)
        rec = outer.get("record") if isinstance(outer, dict) else None
        if not isinstance(rec, dict) or not isinstance(rec.get("payload"), dict):
            raise ValueError("not a cache record")
        body = json.dumps(rec, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        if digest != outer.get("sha256"):
            raise ValueError("checksum mismatch")
        return cls(
            command=rec["command"],
            inputs=rec["inputs"],
            payload=rec["payload"],
            wall_time_ms=rec.get("wall_time_ms", 0),
            library_version=rec.get("library_version", ""),
            schema_version=rec.get("schema_version", SCHEMA_VERSION),
        )


def _key(command: str, inputs: dict) -> str:
    return json.dumps({"command": command, "inputs": inputs}, sort_keys=True)


class ResultCache:
    """JSONL-backed lookup keyed by (command, inputs)."""

    def __init__(self, directory, library_version: str = ""):
        self.path = Path(directory) / "results.jsonl"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.library_version = library_version
        self._records: dict = {}
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        for lineno, line in enumerate(self.path.read_text("utf-8").splitlines(), 1):
            if not line.strip():
                continue
            try:
                rec = ResultRecord.from_line(line)
            except (ValueError, KeyError):
                warnings.warn(f"{self.path}:{lineno}: corrupt cache line skipped")
                continue
            if rec.library_version == self.library_version:
                self._records[_key(rec.command, rec.inputs)] = rec

    def get(self, command: str, inputs: dict) -> Optional[ResultRecord]:
        """The cached record of this library version, if any."""
        return self._records.get(_key(command, inputs))

    def put(self, command: str, inputs: dict, payload: dict, wall_time_ms: int = 0) -> ResultRecord:
        rec = ResultRecord(
            command=command,
            inputs=inputs,
            payload=payload,
            wall_time_ms=wall_time_ms,
            library_version=self.library_version,
        )
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(rec.to_line() + "\n")
        self._records[_key(command, inputs)] = rec
        return rec
