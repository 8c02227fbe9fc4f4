"""Config file grammar and model construction.

The config file is the single source of model truth for the command line.
Grammar (exact):

    # comments run to end of line; blank lines are ignored
    [model]
    kind = overdamped | underdamped | generalized
    d = <int>
    beta = <float>                  # 'inf' switches the noise off
    potential.kind = quadratic | double_well
    potential.params = [<float>, ...]   # quadratic: [omega2] (default [1.0]); double_well: [a, b]
    interaction.eta2 = <float>      # omit for free particles (eta2 = 0)
    gamma = <float>                 # underdamped kind only; an error for the others

    [memory]                        # generalized kind only; an error for the others
    m = <int>
    lambda = [<float>, ...]         # flat row-major (d*m) x d; m entries when d = 1
    A = [<float>, ...]              # flat row-major (d*m) x (d*m)
    diag = [<float>, ...]           # alternative to A: diagonal entries

    [run]
    N = <int>
    T = <float>
    dt = <float>
    seed = <int>
    record_every = <int>

Values are integers, floats, bare words, or bracketed lists of numbers.
Unknown sections or keys are errors, and so are keys for another kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, ShapeMismatch
from .model import (
    CurieWeiss,
    DoubleWell,
    Kind,
    MemorySpec,
    ModelSpec,
    Quadratic,
    ValidatedModel,
    validate,
)

_KNOWN_KEYS = {
    "model": {
        "kind",
        "d",
        "beta",
        "potential.kind",
        "potential.params",
        "interaction.eta2",
        "gamma",
    },
    "memory": {"m", "lambda", "A", "diag"},
    "run": {"N", "T", "dt", "seed", "record_every"},
}


@dataclass
class RunParams:
    """Scalar run parameters; CLI flags may override these, never the model."""

    N: int = 1000
    T: float = 1.0
    dt: float = 1e-3
    seed: int = 0
    record_every: int = 1


@dataclass
class Config:
    sections: dict

    def model_spec(self) -> ModelSpec:
        """The ``[model]`` and ``[memory]`` sections as a :class:`ModelSpec`, not yet validated."""
        model = self.sections["model"]
        try:
            kind = Kind(str(model["kind"]).lower())
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"model.kind missing or invalid: {exc}") from exc
        d = _whole(model, "d", 1)
        beta = _number(model, "beta", 1.0)

        if "gamma" in model and kind is not Kind.UNDERDAMPED:
            raise ConfigError(f"gamma is for the underdamped kind only, not {kind.value}")
        if "memory" in self.sections and kind is not Kind.GENERALIZED:
            raise ConfigError(
                f"a [memory] section is for the generalized kind only, not {kind.value}")

        pkind = str(model.get("potential.kind", "quadratic")).lower()
        params = _numbers(model, "potential.params") if "potential.params" in model else [1.0]
        if pkind == "quadratic":
            if len(params) != 1:
                raise ConfigError("quadratic needs potential.params = [omega2]")
            potential = Quadratic(omega2=float(params[0]))
        elif pkind == "double_well":
            if len(params) != 2:
                raise ConfigError("double_well needs potential.params = [a, b]")
            potential = DoubleWell(a=float(params[0]), b=float(params[1]))
        else:
            raise ConfigError(f"unknown potential.kind {pkind!r}")

        interaction = CurieWeiss(eta2=_number(model, "interaction.eta2", 0.0))
        gamma = _number(model, "gamma", None) if "gamma" in model else None

        memory = None
        if "memory" in self.sections:
            mem = self.sections["memory"]
            for key in ("m", "lambda"):
                if key not in mem:
                    raise ConfigError(f"memory section needs {key}")
            m = _whole(mem, "m", None)
            if d < 1 or m < 1:
                raise ShapeMismatch(f"a memory block needs d >= 1 and m >= 1, got d={d}, m={m}")
            dm = d * m
            lam = _numbers(mem, "lambda")
            if lam.size != dm * d:
                raise ConfigError(f"lambda needs {dm * d} entries")
            lam = lam.reshape(dm, d)
            if "A" in mem and "diag" in mem:
                raise ConfigError("give either A or diag, not both")
            if "diag" in mem:
                diag = _numbers(mem, "diag")
                if diag.size != dm:
                    raise ConfigError(f"diag needs {dm} entries")
                A = np.diag(diag)
            elif "A" in mem:
                A = _numbers(mem, "A")
                if A.size != dm * dm:
                    raise ConfigError(f"A needs {dm * dm} entries")
                A = A.reshape(dm, dm)
            else:
                raise ConfigError("memory section needs A or diag")
            memory = MemorySpec(m=m, lam=lam, A=A)

        return ModelSpec(
            d=d,
            beta=beta,
            potential=potential,
            interaction=interaction,
            memory=memory,
            gamma=gamma,
            kind=kind,
        )

    def model(self) -> ValidatedModel:
        return validate(self.model_spec())

    def run_params(self) -> RunParams:
        run, rp = self.sections.get("run", {}), RunParams()
        return RunParams(
            N=_whole(run, "N", rp.N),
            T=_number(run, "T", rp.T),
            dt=_number(run, "dt", rp.dt),
            seed=_whole(run, "seed", rp.seed),
            record_every=_whole(run, "record_every", rp.record_every),
        )


def _number(section: dict, key: str, default) -> float:
    """``section[key]`` as a float; ConfigError naming the key unless it parsed as a number."""
    value = section.get(key, default)
    if not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _whole(section: dict, key: str, default) -> int:
    """``section[key]`` as an int; ConfigError naming the key unless it is a finite whole number."""
    value = section.get(key, default)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, int):
        raise ConfigError(f"{key} must be a whole number, got {value!r}")
    return value


def _numbers(section: dict, key: str) -> np.ndarray:
    """``section[key]`` as a float array; ConfigError naming the key for a bare word."""
    if isinstance(section[key], str):
        raise ConfigError(f"{key} must be a list of numbers, got {section[key]!r}")
    return np.atleast_1d(np.asarray(section[key], dtype=float))


def _parse_scalar(text: str):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if all(ch.isalnum() or ch == "_" for ch in text) and text:
        return text
    raise ConfigError(f"cannot parse value {text!r}")


def _parse_value(key: str, text: str):
    text = text.strip()
    if not text.startswith("["):
        return _parse_scalar(text)
    if not text.endswith("]"):
        raise ConfigError(f"unterminated list {text!r}")
    inner = text[1:-1].strip()
    values = [_parse_scalar(tok) for tok in inner.split(",")] if inner else []
    if any(isinstance(v, str) for v in values):
        raise ConfigError(f"{key} must be a list of numbers, got {text!r}")
    return [float(v) for v in values]


def parse_config(text: str) -> Config:
    """Parse the documented key = value grammar; unknown keys are errors."""
    sections: dict = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: malformed section header {raw!r}")
            name = line[1:-1].strip()
            if name not in _KNOWN_KEYS:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            current = name
            sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS[current]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{current}]")
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        sections[current][key] = _parse_value(key, val)
    if "model" not in sections:
        raise ConfigError("config must contain a [model] section")
    return Config(sections=sections)


def load_config(path) -> Config:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
