"""System configuration files.

The on-disk format is a plain-text file whose first non-comment line is the
versioned header ``format = 1``, followed by INI-style sections::

    format = 1

    [system]
    n = 2
    n1 = 2                      # optional, defaults to n
    lambdas = 1.0, 1.4142135623730951
    epsilon = 0.05
    psi_kind = constant         # constant | elliptic | smooth
    alpha = 1.0                 # required iff psi_kind = elliptic
    m0 = 3.0                    # optional growth degree, default 0
    v0 = 1+0j, 1+0j             # optional default initial state

    [drift]                     # non-hamiltonian drift components
    p1 = -v1 + v2
    p2 = -v2

    [hamiltonian]               # optional section
    h = abs2(v1)*abs2(v2)

    [dispersion]                # entries psi_<row>_<col>; missing entries are 0
    psi_1_1 = 1
    psi_2_2 = 1

Expressions use the grammar documented in :mod:`stochavg.expr`.  Values are
whitespace-insensitive; ``#`` starts a comment.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .expr import parse_field_expr
from .model import Frequencies, SystemSpec

FORMAT_VERSION = 1


@dataclass(frozen=True)
class SystemConfig:
    spec: SystemSpec
    v0: Optional[np.ndarray] = None


def _split_header(text):
    rest = []
    header = None
    for line in text.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if header is None and stripped:
            header = stripped
            continue
        rest.append(line)
    if header is None:
        raise ConfigError("empty configuration")
    parts = [p.strip() for p in header.split("=")]
    if len(parts) != 2 or parts[0] != "format":
        raise ConfigError("configuration must start with the header line 'format = 1'")
    try:
        version = int(parts[1])
    except ValueError as exc:
        raise ConfigError(f"bad format version {parts[1]!r}") from exc
    if version != FORMAT_VERSION:
        raise ConfigError(f"unsupported configuration format {version}")
    return "\n".join(rest)


def parse_system_text(text: str) -> SystemConfig:
    body = _split_header(text)
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    try:
        cp.read_string(body)
    except configparser.Error as exc:
        raise ConfigError(f"malformed configuration: {exc}") from exc
    if not cp.has_section("system"):
        raise ConfigError("missing [system] section")
    sys_sec = cp["system"]
    try:
        n = int(sys_sec["n"])
    except KeyError as exc:
        raise ConfigError("missing system.n") from exc
    except ValueError as exc:
        raise ConfigError("system.n must be an integer") from exc
    if n < 1:
        raise ConfigError("system.n must be >= 1")
    n1 = int(sys_sec.get("n1", str(n)))
    lam_text = sys_sec.get("lambdas")
    if lam_text is None:
        raise ConfigError("missing system.lambdas")
    try:
        lambdas = tuple(float(x) for x in lam_text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad frequency list {lam_text!r}") from exc
    if len(lambdas) != n:
        raise ConfigError(f"expected {n} frequencies, got {len(lambdas)}")
    try:
        epsilon = float(sys_sec.get("epsilon", "1.0"))
    except ValueError as exc:
        raise ConfigError("system.epsilon must be a number") from exc
    psi_kind = sys_sec.get("psi_kind", "smooth").strip().lower()
    alpha = float(sys_sec["alpha"]) if "alpha" in sys_sec else None
    m0 = float(sys_sec.get("m0", "0"))

    def parse_expr(text_value, where):
        try:
            return parse_field_expr(text_value, n)
        except Exception as exc:
            raise ConfigError(f"bad expression for {where}: {exc}") from exc

    drift = []
    drift_sec = cp["drift"] if cp.has_section("drift") else {}
    for k in range(1, n + 1):
        drift.append(parse_expr(drift_sec.get(f"p{k}", "0"), f"drift.p{k}"))

    h = None
    if cp.has_section("hamiltonian") and cp["hamiltonian"].get("h", "").strip():
        h = parse_expr(cp["hamiltonian"]["h"], "hamiltonian.h")

    psi_sec = cp["dispersion"] if cp.has_section("dispersion") else {}
    psi = []
    for k in range(1, n + 1):
        row = []
        for l in range(1, n1 + 1):
            row.append(parse_expr(psi_sec.get(f"psi_{k}_{l}", "0"), f"dispersion.psi_{k}_{l}"))
        psi.append(tuple(row))

    spec = SystemSpec(
        freqs=Frequencies(lambdas),
        epsilon=epsilon,
        p1=tuple(drift),
        psi=tuple(psi),
        h=h,
        psi_kind=psi_kind,
        alpha=alpha,
        m0=m0,
    )

    v0 = None
    if "v0" in sys_sec:
        try:
            v0 = np.array([complex(x.strip()) for x in sys_sec["v0"].split(",")])
        except ValueError as exc:
            raise ConfigError(f"bad initial state {sys_sec['v0']!r}") from exc
        if v0.shape != (n,):
            raise ConfigError(f"initial state needs {n} components")
    return SystemConfig(spec=spec, v0=v0)


def system_to_text(spec: SystemSpec, v0=None) -> str:
    """Serialize a system back to the versioned config format (round-trips);
    every entry prints as its Polynomial."""
    lines = [f"format = {FORMAT_VERSION}", "", "[system]"]
    lines.append(f"n = {spec.n}")
    lines.append(f"n1 = {spec.n1}")
    lines.append("lambdas = " + ", ".join(repr(x) for x in spec.freqs.lambdas))
    lines.append(f"epsilon = {spec.epsilon!r}")
    lines.append(f"psi_kind = {spec.psi_kind}")
    if spec.alpha is not None:
        lines.append(f"alpha = {spec.alpha!r}")
    lines.append(f"m0 = {spec.m0!r}")
    if v0 is not None:
        lines.append("v0 = " + ", ".join(str(complex(z)) for z in np.asarray(v0)))
    lines.append("")
    lines.append("[drift]")
    for k, p in enumerate(spec.p1_polys, start=1):
        lines.append(f"p{k} = {p}")
    if spec.h_poly is not None:
        lines.append("")
        lines.append("[hamiltonian]")
        lines.append(f"h = {spec.h_poly}")
    lines.append("")
    lines.append("[dispersion]")
    for k, row in enumerate(spec.psi_polys, start=1):
        for l, entry in enumerate(row, start=1):
            lines.append(f"psi_{k}_{l} = {entry}")
    lines.append("")
    return "\n".join(lines)
