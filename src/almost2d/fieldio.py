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

import numpy as np

from .field import PhysicalVectorField, SpectralVectorField, to_physical, to_spectral
from .grid import GridSpec

FORMAT_VERSION = 1
_REQUIRED = {
    "components": "3",
    "storage": "physical",
    "precision": "f64",
    "order": "x3-fastest",
}


def write_field(path: str, u: SpectralVectorField | PhysicalVectorField) -> None:
    if isinstance(u, SpectralVectorField):
        u = to_physical(u)
    header = (
        f"version={FORMAT_VERSION}\n"
        f"n={u.grid.n}\n"
        "components=3\n"
        "storage=physical\n"
        "precision=f64\n"
        "order=x3-fastest\n"
        "\n"
    )
    data = np.ascontiguousarray(u.samples, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(data.tobytes())


def read_field(path: str) -> SpectralVectorField:
    with open(path, "rb") as fh:
        raw = fh.read()
    sep = raw.find(b"\n\n")
    if sep < 0:
        raise ValueError(f"{path}: missing blank line terminating the header")
    pairs = {}
    for line in raw[:sep].decode("ascii").splitlines():
        if "=" not in line:
            raise ValueError(f"{path}: malformed header line {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in pairs:
            raise ValueError(f"{path}: header key {key!r} appears more than once")
        pairs[key] = value.strip()
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
    body = raw[sep + 2:]
    expected_bytes = 3 * n**3 * 8
    if len(body) != expected_bytes:
        raise ValueError(
            f"{path}: payload holds {len(body)} bytes, expected {expected_bytes}"
        )
    samples = np.frombuffer(body, dtype="<f8").reshape(3, n, n, n).astype(np.float64)
    return to_spectral(PhysicalVectorField(grid, samples))
