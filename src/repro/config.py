"""Process-wide backend configuration.

Two switches select a real backend, each with an environment variable
for CI's matrix legs:

``storage`` / ``REPRO_STORAGE``
    ``tier`` (default) honours a cluster's
    :class:`~repro.cluster.cluster.TieredStorage`; ``memory`` ignores it
    and keeps every chunk resident — the byte-identical reference the
    tier is compared against.
``exec`` / ``REPRO_EXEC``
    ``inprocess`` (default) runs queries in the driver; ``process``
    gathers payloads from one worker process per node.

:func:`mode` resolves one field (override first, then the environment,
then the default) and :func:`parity` overrides any subset for one
``with`` block::

    from repro.config import parity

    with parity(exec="process"):
        run_suite(queries, cluster.session(), cycle)

Everything else that used to be a mode — the dict ledger, the per-chunk
cost walk, the store-scan reads, forced full recomputation — is a
reference implementation under ``tests/oracles/`` that tests call
directly; production code has one path per layer.

Overrides are **process-wide**: a ``parity(...)`` block changes what
every caller resolves until the block exits.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Tuple

from repro.errors import ConfigError

#: ``field -> (environment variable, allowed values)``; the first
#: allowed value is the default.  This table *is* the registry — the
#: dataclass fields, :func:`mode`, and :func:`parity` all key off it.
PARITY_FIELDS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "storage": ("REPRO_STORAGE", ("tier", "memory")),
    "exec": ("REPRO_EXEC", ("inprocess", "process")),
}


def _from_env(field: str) -> str:
    """The value the environment selects for ``field`` (unset = default).

    Raises
    ------
    ConfigError
        If the variable is set to a value the field does not accept —
        a typo must not silently run the other backend.
    """
    env, allowed = PARITY_FIELDS[field]
    raw = os.environ.get(env)
    if raw is None:
        return allowed[0]
    value = raw.strip().lower()
    if value not in allowed:
        raise ConfigError(
            f"{env}={raw!r} is not a {field} backend; expected one of "
            f"{allowed}"
        )
    return value


@dataclass(frozen=True)
class ParityConfig:
    """A snapshot of both backend switches.

    Instances are immutable values — :func:`current` materializes one
    from the live override stack + environment, and :func:`parity`
    yields the config in force inside its block.
    """

    storage: str = "tier"
    exec: str = "inprocess"

    def __post_init__(self) -> None:
        for field, (_env, allowed) in PARITY_FIELDS.items():
            value = getattr(self, field)
            if value not in allowed:
                raise ConfigError(
                    f"unknown {field} mode {value!r}; expected one of "
                    f"{allowed}"
                )

    @classmethod
    def from_env(cls) -> "ParityConfig":
        """The config the environment alone selects (no overrides).

        Raises
        ------
        ConfigError
            On an unrecognised value in either variable.
        """
        return cls(**{f: _from_env(f) for f in PARITY_FIELDS})


# Per-field override slot; ``None`` falls through to the environment.
_OVERRIDES: Dict[str, Optional[str]] = {f: None for f in PARITY_FIELDS}


def mode(field: str) -> str:
    """Resolve one field: override, else environment, else default.

    Parameters
    ----------
    field : str
        ``"storage"`` or ``"exec"``.

    Raises
    ------
    ConfigError
        If ``field`` is not a parity field, or its environment variable
        holds an unrecognised value.
    """
    if field not in PARITY_FIELDS:
        raise ConfigError(
            f"unknown parity field {field!r}; expected one of "
            f"{tuple(PARITY_FIELDS)}"
        )
    override = _OVERRIDES[field]
    if override is not None:
        return override
    return _from_env(field)


def current() -> ParityConfig:
    """The :class:`ParityConfig` in force right now."""
    return ParityConfig(**{f: mode(f) for f in PARITY_FIELDS})


@contextmanager
def parity(**overrides: str) -> Iterator[ParityConfig]:
    """Override either backend switch for one block.

    ``with parity(storage="memory"):`` pins the all-in-memory stores
    while leaving ``exec`` on its environment default.  Blocks nest;
    each restores exactly what it changed.

    Raises
    ------
    ConfigError
        On an unknown field name or a value the field does not accept.
    """
    for field, value in overrides.items():
        spec = PARITY_FIELDS.get(field)
        if spec is None:
            raise ConfigError(
                f"unknown parity field {field!r}; expected one of "
                f"{tuple(PARITY_FIELDS)}"
            )
        if value not in spec[1]:
            raise ConfigError(
                f"unknown {field} mode {value!r}; expected one of "
                f"{spec[1]}"
            )
    previous = {f: _OVERRIDES[f] for f in overrides}
    _OVERRIDES.update(overrides)
    try:
        yield current()
    finally:
        _OVERRIDES.update(previous)


# ----------------------------------------------------------------------
# sanctioned environment access
# ----------------------------------------------------------------------
# Tuning knobs that are not two-valued parity switches (timeouts, start
# methods, cost-rate overrides) still read ``REPRO_*`` variables —
# but only through these helpers, so every environment dependency in
# the tree routes through this module.  The ``env-discipline`` checker
# in ``tools/reprolint`` enforces that no other ``repro`` module
# touches ``os.environ`` directly.


def env_text(name: str, default: str = "") -> str:
    """A raw ``REPRO_*`` string setting, stripped, from the environment."""
    return os.environ.get(name, default).strip()


def env_float(name: str, default: float) -> float:
    """A numeric ``REPRO_*`` setting; ``default`` on unset or malformed."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        return default


def env_mapping() -> Mapping[str, str]:
    """The live environment as a read-only mapping.

    For call sites that take an ``environ``-shaped mapping parameter
    (e.g. :meth:`repro.cluster.costs.CostParameters.from_env`) and
    default to the real environment.
    """
    return os.environ
