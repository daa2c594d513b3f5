"""Flat key=value config files for the CLI.

Format: one `key = value` per line, `#` starts a comment, blank lines
ignored.  Known keys: mode, b, gamma, r, b_values, gamma_values,
r_values, output.  List values are comma-separated numbers.
"""

from __future__ import annotations

from pathlib import Path

from .engine import CycleMode

_FLOAT_KEYS = ("b", "gamma", "r")
_LIST_KEYS = ("b_values", "gamma_values", "r_values")
_MODES = tuple(mode.value for mode in CycleMode)


class ConfigError(Exception):
    """Config file missing or malformed; message names the file and line."""


def parse_float_list(text: str) -> tuple[float, ...]:
    """Parse 'a,b,c' into floats; raises ValueError on junk or emptiness."""
    tokens = [tok.strip() for tok in text.split(",")]
    values = tuple(float(tok) for tok in tokens if tok != "")
    if not values:
        raise ValueError(f"expected a comma-separated list of numbers, got {text!r}")
    return values


def load_config(path: str) -> dict[str, object]:
    """Parse a config file into typed values keyed by the known key names."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    values: dict[str, object] = {}
    for lineno, raw in enumerate(p.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path} line {lineno}: expected key=value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "mode":
            if value not in _MODES:
                raise ConfigError(
                    f"{path} line {lineno}: mode must be one of {_MODES}, got {value!r}"
                )
            values[key] = value
        elif key in _FLOAT_KEYS:
            try:
                values[key] = float(value)
            except ValueError:
                raise ConfigError(
                    f"{path} line {lineno}: malformed number for {key}: {value!r}"
                ) from None
        elif key in _LIST_KEYS:
            try:
                values[key] = parse_float_list(value)
            except ValueError:
                raise ConfigError(
                    f"{path} line {lineno}: malformed number list for {key}: {value!r}"
                ) from None
        elif key == "output":
            values[key] = value
        else:
            raise ConfigError(f"{path} line {lineno}: unknown key {key!r}")
    return values
