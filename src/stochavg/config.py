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
whitespace-insensitive; ``#`` starts a comment.  A section or key not shown
here, or a dispersion entry past row n or column n1, is an error.
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


def _states(text, n, where):
    """The state ``a, b, ...`` of ``where``: n comma-separated complex entries."""
    try:
        v = np.array([complex(x.strip()) for x in text.split(",")])
    except ValueError as exc:
        raise ConfigError(f"bad value for {where}: {text!r}") from exc
    if v.shape != (n,):
        raise ConfigError(f"{where} needs {n} comma-separated complex entries")
    return v


def parse_system_text(text: str) -> SystemConfig:
    body = _split_header(text)
    # no header can name a default section with a newline in it, so a
    # [DEFAULT] section is an ordinary, unknown one rather than keys that
    # configparser copies into every section
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",),
                                   default_section="\n")
    try:
        cp.read_string(body)
    except configparser.Error as exc:
        raise ConfigError(f"malformed configuration: {exc}") from exc
    if not cp.has_section("system"):
        raise ConfigError("missing [system] section")
    sys_sec = cp["system"]

    def value(key, convert, default):
        text_value = sys_sec.get(key, default)
        if text_value is None:
            raise ConfigError(f"missing system.{key}")
        try:
            return convert(text_value)
        except ValueError as exc:
            raise ConfigError(f"bad value for system.{key}: {text_value!r}") from exc

    n = value("n", int, None)
    if n < 1:
        raise ConfigError("system.n must be >= 1")
    n1 = value("n1", int, str(n))
    if n1 < 1:
        raise ConfigError("system.n1 must be >= 1")
    lambdas = value("lambdas", lambda s: tuple(float(x) for x in s.split(",")), None)
    if len(lambdas) != n:
        raise ConfigError(f"expected {n} frequencies, got {len(lambdas)}")
    # the schema: every section and every key it may hold
    keys = {"system": {"n", "n1", "lambdas", "epsilon", "psi_kind", "alpha", "m0", "v0"},
            "drift": {f"p{k}" for k in range(1, n + 1)},
            "hamiltonian": {"h"},
            "dispersion": {f"psi_{k}_{l}" for k in range(1, n + 1) for l in range(1, n1 + 1)}}
    for section in cp.sections():
        if section not in keys:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in keys[section]:
                raise ConfigError(f"unknown key {section}.{key}")

    def entry(section, key):
        try:
            return parse_field_expr(cp.get(section, key, fallback="0"), n)
        except Exception as exc:
            raise ConfigError(f"bad expression for {section}.{key}: {exc}") from exc

    spec = SystemSpec(
        freqs=Frequencies(lambdas),
        epsilon=value("epsilon", float, "1.0"),
        p1=tuple(entry("drift", f"p{k}") for k in range(1, n + 1)),
        psi=tuple(tuple(entry("dispersion", f"psi_{k}_{l}") for l in range(1, n1 + 1))
                  for k in range(1, n + 1)),
        h=entry("hamiltonian", "h") if cp.get("hamiltonian", "h", fallback="") else None,
        psi_kind=value("psi_kind", str.lower, "smooth"),
        alpha=value("alpha", float, None) if "alpha" in sys_sec else None,
        m0=value("m0", float, "0"),
    )
    v0 = _states(sys_sec["v0"], n, "system.v0") if "v0" in sys_sec else None
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
