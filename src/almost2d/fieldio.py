"""Field file format shared with the CLI.

A text header of key=value lines terminated by a blank line, then raw
little-endian float64 samples, component-major with x3 fastest:

    version=1
    n=<int>
    components=3
    storage=physical
    precision=f64
    order=x3-fastest
    <blank line>
    <3 * n^3 float64 values>
"""

from __future__ import annotations

import os

import numpy as np

from .field import PhysicalVectorField, SpectralVectorField, to_physical, to_spectral
from .grid import GridSpec

FORMAT_VERSION = 1
#: Bounds on the header lines ``read_field`` reads; a header needs 7 short ones.
_HEADER_LINES = 64
_HEADER_LINE_BYTES = 256
_REQUIRED = {
    "components": "3",
    "storage": "physical",
    "precision": "f64",
    "order": "x3-fastest",
}


def write_field(path: str, u: SpectralVectorField) -> None:
    fixed = "".join(f"{key}={value}\n" for key, value in _REQUIRED.items())
    header = f"version={FORMAT_VERSION}\nn={u.grid.n}\n{fixed}\n"
    data = np.ascontiguousarray(to_physical(u).samples, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(memoryview(data).cast("B"))  # the array's own bytes, not a copy


def read_field(path: str) -> SpectralVectorField:
    """The field of a file; the header is read in bounded lines and the
    payload size is checked against its n before any sample is read."""
    pairs = {}
    with open(path, "rb") as fh:
        for _ in range(_HEADER_LINES):
            line = fh.readline(_HEADER_LINE_BYTES).decode("ascii")
            if line == "\n" or not line.endswith("\n"):
                break
            if "=" not in line:
                raise ValueError(f"{path}: malformed header line {line[:-1]!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            if key in pairs:
                raise ValueError(f"{path}: header key {key!r} appears more than once")
            pairs[key] = value.strip()
        if line != "\n":
            raise ValueError(f"{path}: missing blank line terminating the header")
        if pairs.get("version") != str(FORMAT_VERSION):
            raise ValueError(
                f"{path}: unsupported field file version {pairs.get('version')!r}"
            )
        for key, expected in _REQUIRED.items():
            if pairs.get(key) != expected:
                raise ValueError(f"{path}: header {key}={pairs.get(key)!r}, expected {expected!r}")
        if "n" not in pairs:
            raise ValueError(f"{path}: header has no n= line")
        try:
            n = int(pairs["n"])
        except ValueError:
            raise ValueError(f"{path}: header n={pairs['n']!r} is not an integer") from None
        grid = GridSpec(n)
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        expected_bytes = 3 * n**3 * 8
        if payload != expected_bytes:
            raise ValueError(
                f"{path}: payload holds {payload} bytes, expected {expected_bytes}"
            )
        samples = np.empty((3, n, n, n), dtype="<f8")
        if fh.readinto(samples.data) != expected_bytes:
            raise ValueError(f"{path}: payload shorter than {expected_bytes} bytes")
    return to_spectral(PhysicalVectorField(grid, samples.astype(np.float64, copy=False)))
