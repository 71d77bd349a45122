"""Bundled datasets plus lookup helpers for optional local ones."""

from __future__ import annotations

import json
import os
from importlib import resources
from pathlib import Path


def fixture_path(name: str) -> Path:
    """Path of a bundled fixture file; raises FileNotFoundError if absent.

    Needs a flat install, where package data are files on disk: in a zipped
    install no bundled fixture has a path. load_json works in either.
    """
    path = Path(str(resources.files(__package__) / name))
    if not path.is_file():
        raise FileNotFoundError(f"no bundled fixture named {name!r}")
    return path


def load_json(name: str) -> dict:
    """A bundled JSON fixture, read through the package's resources."""
    resource = resources.files(__package__) / name
    if not resource.is_file():
        raise FileNotFoundError(f"no bundled fixture named {name!r}")
    return json.loads(resource.read_text(encoding="utf-8"))


def optional_fixture(name: str) -> Path | None:
    """Find a fixture that may be supplied locally rather than bundled.

    Looks in $REVCHECK_FIXTURE_DIR, then ./fixtures relative to the current
    directory, then the bundled package data. Returns None when absent.
    """
    env_dir = os.environ.get("REVCHECK_FIXTURE_DIR")
    candidates = []
    if env_dir:
        candidates.append(Path(env_dir) / name)
    candidates.append(Path("fixtures") / name)
    for candidate in candidates:
        if candidate.is_file():
            return candidate
    try:
        return fixture_path(name)
    except FileNotFoundError:
        return None
