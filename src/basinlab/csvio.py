"""Deterministic CSV output.

Every file starts with a manifest comment line of key=value fields (the CLI's:
subcommand, config hash, seed and library version), then a header row. Floats
are written with 17 significant digits, line endings are LF, encoding UTF-8,
so identical inputs reproduce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

__version__ = "0.1.0"


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def format_value(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return f"{v:.17g}"
    if v is None:
        return ""
    return str(v)


def write_csv(
    path: Path | str,
    header: list[str],
    rows: list[tuple],
    manifest: dict | None = None,
) -> None:
    lines = []
    if manifest is not None:
        fields = " ".join(f"{k}={v}" for k, v in sorted(manifest.items()))
        lines.append(f"# manifest {fields}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_csv(path: Path | str) -> tuple[dict, list[str], list[list[str]]]:
    """Read back a CSV written by write_csv: (manifest, header, rows of strings)."""
    manifest = {}
    header: list[str] = []
    rows: list[list[str]] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line:
            continue
        if line.startswith("# manifest"):
            for item in line[len("# manifest") :].split():
                if "=" in item:
                    k, v = item.split("=", 1)
                    manifest[k] = v
            continue
        if line.startswith("#"):
            continue
        if not header:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return manifest, header, rows


def write_manifest(path: Path | str, manifest: dict) -> None:
    """Write the manifest that write_csv puts on a CSV's first line as JSON."""
    Path(path).write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8", newline="\n"
    )
