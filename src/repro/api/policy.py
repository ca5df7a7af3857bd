"""Execution policy: one lazy resolution order for every setting.

Every ``REPRO_*`` setting is one row of a private table, resolved at
each decision point by one walk: **explicit argument** > **context**
(the innermost ``with repro.engine(...):`` that sets it) > **installed
policy** (:func:`set_policy`) > **environment** (read at resolution
time, so exporting a variable after ``import repro`` works) >
**default**.  Gateway deployment rows have no policy field and resolve
explicit > environment > default.  API.md §Execution policy lists
every row: field, variable, default and what a bad environment value
does.

This module imports nothing from the rest of the package at import
time (it sits below every other layer in the import graph); the
checks that need :mod:`repro.parallel` or :mod:`repro.errors` import
them lazily.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Optional, Tuple, Union

#: Recognised ``fleet_on_failure`` modes (abort the pass / fold failures).
FLEET_ON_FAILURE_MODES = ("raise", "degrade")

#: Recognised SHA-256 backends (see :mod:`repro.crypto.sha256`).
SHA256_BACKENDS = ("hashlib", "pure")

_FALSEY = ("0", "false", "no", "off", "scalar")


# ---------------------------------------------------------------------------
# Engine registry


@dataclass(frozen=True)
class EngineSpec:
    """One registered execution engine: ``name`` is the key
    :func:`repro.engine` and :attr:`ExecutionPolicy.engine` accept;
    ``vectorized`` says whether the span/batched numpy fast paths run
    (every current consumer reduces an engine to this flag)."""

    name: str
    vectorized: bool
    description: str = ""


_ENGINES: Dict[str, EngineSpec] = {}


def register_engine(spec: EngineSpec, *, replace: bool = False) -> EngineSpec:
    """Register an engine so policies and contexts can select it by
    name; ``ValueError`` for a duplicate name unless ``replace``."""
    if not spec.name or not spec.name.isidentifier():
        raise ValueError(f"engine name must be an identifier: {spec.name!r}")
    if spec.name in _ENGINES and not replace:
        raise ValueError(f"engine {spec.name!r} already registered")
    _ENGINES[spec.name] = spec
    return spec


def unregister_engine(name: str) -> None:
    """Remove a registered engine (built-ins are protected)."""
    if name in ("vectorized", "scalar"):
        raise ValueError(f"cannot unregister built-in engine {name!r}")
    _ENGINES.pop(name, None)


def available_engines() -> Tuple[str, ...]:
    """Names of all registered engines, registration order."""
    return tuple(_ENGINES)


def get_engine(name: str) -> EngineSpec:
    """Look up a registered engine by name."""
    try:
        return _ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; registered: {', '.join(_ENGINES)}"
        ) from None


VECTORIZED_ENGINE = register_engine(EngineSpec(
    "vectorized", True,
    "numpy span/batched fast paths (protocol-identical, default)"))
SCALAR_ENGINE = register_engine(EngineSpec(
    "scalar", False,
    "the paper's literal per-dot/per-byte reference protocol"))


# ---------------------------------------------------------------------------
# Checks canonicalise a value or raise; a row's check runs on the
# explicit argument and on the policy field alike.  Environment readers
# ``parse(raw, check)`` return the value, or _IGNORE to fall through to
# the default, or raise.


def _check_engine(value: Union[bool, str]) -> str:
    if isinstance(value, bool):  # the legacy vectorized=/span_engine= flags
        return "vectorized" if value else "scalar"
    return get_engine(value).name


def _choice(label: str, choices: Tuple[str, ...]) -> Callable[[Any], str]:
    def check(value: Any) -> str:
        if value not in choices:
            raise ValueError(
                f"unknown {label} {value!r}; expected one of {choices}")
        return value
    return check


def _check_executor(value: str) -> str:
    from .. import parallel  # lazy: keeps this module at the bottom
    return parallel.get_executor_spec(value).name


def _int_at_least(label: str, minimum: int) -> Callable[[Any], int]:
    def check(value: Any) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"{label} must be an integer, got {value!r}")
        if value < minimum:
            raise ValueError(f"{label} must be >= {minimum}")
        return value
    return check


def _instance(label: str, kind: type,
              nonempty: bool = False) -> Callable[[Any], Any]:
    def check(value: Any) -> Any:
        if not isinstance(value, kind):
            raise TypeError(f"{label} must be a {kind.__name__} or None")
        if nonempty and not value:
            raise ValueError(f"{label} must be non-empty")
        return value
    return check


def _check_hosts(value: Union[str, Tuple[str, ...]]) -> Tuple[str, ...]:
    from ..parallel import remote  # lazy: only parsing loads the wire module
    return remote.parse_hosts(value)


def _check_bind(value: str) -> str:
    from ..parallel import remote  # lazy, as above
    return "%s:%d" % remote.parse_host(value)


def _check_timeout(value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("fleet_timeout must be a number or None")
    if value <= 0:
        raise ValueError("fleet_timeout must be > 0 seconds")
    return float(value)


def _check_path(value: Any) -> str:
    path = os.fspath(value)  # TypeError for anything that is not a path
    if not isinstance(path, str) or not path.strip():
        raise ValueError("gateway_token_file must be a non-empty path")
    return path


def _check_lock_mode(value: Any) -> str:
    from .fleet import FleetStore  # lazy: the gateway has it loaded
    return _choice("gateway lock mode", FleetStore.LOCK_MODES)(value)


def _gateway(check: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """Gateway rows report every rejection as ``ConfigurationError``."""
    def strict(value: Any) -> Any:
        try:
            return check(value)
        except (TypeError, ValueError) as exc:
            from ..errors import ConfigurationError  # lazy, see module doc
            raise ConfigurationError(str(exc)) from None
    return strict


_IGNORE = object()


def _env(convert: Callable[[str], Any], strict: bool = False) -> Callable:
    """A blank value is ignored, and so is a bad one unless ``strict``
    (a stale export must not crash a fleet node)."""
    def parse(raw: str, check: Callable) -> Any:
        if not raw.strip():
            return _IGNORE
        try:
            return check(convert(raw))
        except (TypeError, ValueError):
            if strict:
                raise
            return _IGNORE
    return parse


def _token(raw: str) -> str:
    return raw.strip().lower()


def _int_or_raw(raw: str) -> Any:
    try:
        return int(raw)
    except ValueError:
        return raw  # the row's check rejects it with its own message


def _engine_env(raw: str, check: Callable) -> str:
    """Never ignored: falsey tokens mean scalar, unknown ones vectorized."""
    token = _token(raw)
    if token in _ENGINES:
        return token
    return "scalar" if token in _FALSEY else "vectorized"


def _timeout_env(raw: str, check: Callable) -> Any:
    try:
        seconds = float(raw)
    except ValueError:
        return _IGNORE
    return check(seconds) if seconds > 0 else None  # <= 0: disabled


@dataclass(frozen=True)
class _Knob:
    """One row of the settings table.  ``name`` is the
    :class:`ExecutionPolicy` field and :func:`describe_policy` key
    (``source_key`` overrides ``<name>_source``); ``policy=False`` rows
    have no field; ``secret`` rows are described as ``<name>_set``."""

    name: str
    env: str
    check: Callable[[Any], Any]
    parse: Callable[[str, Callable], Any]
    default: Any = None
    secret: bool = False
    policy: bool = True
    source_key: str = ""


def _int_knob(name: str, env: str, minimum: int, default: Any = None) -> _Knob:
    return _Knob(name, env, _int_at_least(name, minimum), _env(int), default)


def _gateway_int(name: str, env: str, minimum: int, default: int) -> _Knob:
    return _Knob(name, env, _gateway(_int_at_least(env, minimum)),
                 _env(_int_or_raw, strict=True), default, policy=False)


_ENGINE = _Knob("engine", "REPRO_SPAN_ENGINE", _check_engine, _engine_env,
                "vectorized")
_SHA256 = _Knob("sha256_backend", "REPRO_SHA256_BACKEND",
                _choice("sha256 backend", SHA256_BACKENDS), _env(_token),
                "hashlib", source_key="sha256_source")
_EXECUTOR = _Knob("executor", "REPRO_FLEET_EXECUTOR", _check_executor,
                  _env(_token), "serial")
_MAX_WORKERS = _int_knob("max_workers", "REPRO_FLEET_WORKERS", 1)
_FLEET_HOSTS = _Knob("fleet_hosts", "REPRO_FLEET_HOSTS", _check_hosts,
                     _env(str, strict=True))
_FLEET_SESSIONS = _Knob("fleet_sessions", "REPRO_FLEET_SESSIONS",
                        _instance("fleet_sessions", bool),
                        _env(lambda raw: _token(raw) not in _FALSEY), False)
_FLEET_TIMEOUT = _Knob("fleet_timeout", "REPRO_FLEET_TIMEOUT",
                       _check_timeout, _timeout_env)
_FLEET_RETRIES = _int_knob("fleet_retries", "REPRO_FLEET_RETRIES", 0, 0)
_FLEET_ON_FAILURE = _Knob(
    "fleet_on_failure", "REPRO_FLEET_ON_FAILURE",
    _choice("fleet_on_failure mode", FLEET_ON_FAILURE_MODES), _env(_token),
    "raise")
_FLEET_SECRET = _Knob("fleet_secret", "REPRO_FLEET_SECRET",
                      _instance("fleet_secret", str, nonempty=True),
                      _env(str.strip), secret=True)
_GATEWAY_BIND = _Knob("gateway_bind", "REPRO_GATEWAY_BIND", _check_bind,
                      _env(str, strict=True), "127.0.0.1:8473")
_GATEWAY_TOKEN_FILE = _Knob("gateway_token_file", "REPRO_GATEWAY_TOKEN_FILE",
                            _check_path, _env(str.strip))
_SEARCH_FRAGMENT_SIZE = _int_knob("search_fragment_size",
                                  "REPRO_SEARCH_FRAGMENT_SIZE", 1, 80)
_SEARCH_FRAGMENT_COUNT = _int_knob("search_fragment_count",
                                   "REPRO_SEARCH_FRAGMENT_COUNT", 0, 3)
_SEARCH_MAX_HITS = _int_knob("search_max_hits", "REPRO_SEARCH_MAX_HITS", 1, 50)
_GATEWAY_LOCK_MODE = _Knob("gateway_lock_mode", "REPRO_GATEWAY_LOCK_MODE",
                           _gateway(_check_lock_mode),
                           _env(_token, strict=True), "shard", policy=False)
_GATEWAY_MEMBERS = _gateway_int("gateway_members", "REPRO_GATEWAY_MEMBERS",
                                1, 4)
_GATEWAY_SEED = _gateway_int("gateway_seed", "REPRO_GATEWAY_SEED", 0, 2008)
_GATEWAY_BLOCKS = _gateway_int("gateway_blocks", "REPRO_GATEWAY_BLOCKS",
                               64, 512)
_GATEWAY_TOKENS = _Knob("gateway_tokens", "REPRO_GATEWAY_TOKENS",
                        _gateway(_instance("gateway token spec", str,
                                           nonempty=True)),
                        _env(str, strict=True), secret=True, policy=False)

#: Every row; the policy rows in :class:`ExecutionPolicy` field order.
_KNOBS = (_ENGINE, _SHA256, _EXECUTOR, _MAX_WORKERS, _FLEET_HOSTS,
          _FLEET_SESSIONS, _FLEET_TIMEOUT, _FLEET_RETRIES, _FLEET_ON_FAILURE,
          _FLEET_SECRET, _GATEWAY_BIND, _GATEWAY_TOKEN_FILE,
          _SEARCH_FRAGMENT_SIZE, _SEARCH_FRAGMENT_COUNT, _SEARCH_MAX_HITS,
          _GATEWAY_LOCK_MODE, _GATEWAY_MEMBERS, _GATEWAY_SEED,
          _GATEWAY_BLOCKS, _GATEWAY_TOKENS)
_POLICY_KNOBS = tuple(knob for knob in _KNOBS if knob.policy)

ENGINE_ENV_VAR = _ENGINE.env
SHA256_ENV_VAR = _SHA256.env
EXECUTOR_ENV_VAR = _EXECUTOR.env
FLEET_WORKERS_ENV_VAR = _MAX_WORKERS.env
FLEET_HOSTS_ENV_VAR = _FLEET_HOSTS.env
FLEET_SESSIONS_ENV_VAR = _FLEET_SESSIONS.env
FLEET_TIMEOUT_ENV_VAR = _FLEET_TIMEOUT.env
FLEET_RETRIES_ENV_VAR = _FLEET_RETRIES.env
FLEET_ON_FAILURE_ENV_VAR = _FLEET_ON_FAILURE.env
FLEET_SECRET_ENV_VAR = _FLEET_SECRET.env
GATEWAY_BIND_ENV_VAR = _GATEWAY_BIND.env
GATEWAY_TOKENS_ENV_VAR = _GATEWAY_TOKENS.env
GATEWAY_TOKEN_FILE_ENV_VAR = _GATEWAY_TOKEN_FILE.env
SEARCH_FRAGMENT_SIZE_ENV_VAR = _SEARCH_FRAGMENT_SIZE.env
SEARCH_FRAGMENT_COUNT_ENV_VAR = _SEARCH_FRAGMENT_COUNT.env
SEARCH_MAX_HITS_ENV_VAR = _SEARCH_MAX_HITS.env
DEFAULT_EXECUTOR = _EXECUTOR.default
DEFAULT_GATEWAY_BIND = _GATEWAY_BIND.default
DEFAULT_SEARCH_FRAGMENT_SIZE = _SEARCH_FRAGMENT_SIZE.default
DEFAULT_SEARCH_FRAGMENT_COUNT = _SEARCH_FRAGMENT_COUNT.default
DEFAULT_SEARCH_MAX_HITS = _SEARCH_MAX_HITS.default


@dataclass(frozen=True)
class ExecutionPolicy:
    """A bundle of setting choices, installable or usable as a context.

    Each field is a policy row of the table in API.md §Execution
    policy; ``None`` defers to the next layer.  A set field goes through
    the check of its ``resolve_*`` function's explicit argument, which
    canonicalises it (hosts sorted, bind as ``host:port``, timeout a
    float).  ``fleet_secret`` never shows in reprs or diagnostics.
    """

    engine: Optional[str] = None
    sha256_backend: Optional[str] = None
    executor: Optional[str] = None
    max_workers: Optional[int] = None
    fleet_hosts: Optional[Tuple[str, ...]] = None
    fleet_sessions: Optional[bool] = None
    fleet_timeout: Optional[float] = None
    fleet_retries: Optional[int] = None
    fleet_on_failure: Optional[str] = None
    fleet_secret: Optional[str] = field(default=None, repr=False)
    gateway_bind: Optional[str] = None
    gateway_token_file: Optional[str] = None
    search_fragment_size: Optional[int] = None
    search_fragment_count: Optional[int] = None
    search_max_hits: Optional[int] = None

    def __post_init__(self) -> None:
        for knob in _POLICY_KNOBS:
            value = getattr(self, knob.name)
            if value is not None:
                object.__setattr__(self, knob.name, knob.check(value))

    @contextmanager
    def use(self) -> Iterator["ExecutionPolicy"]:
        """Apply this policy as a (nestable) context override."""
        token = _OVERRIDES.set(_OVERRIDES.get() + (self,))
        try:
            yield self
        finally:
            _OVERRIDES.reset(token)


#: Installed process-wide policy (layer 3 of the resolution order).
_POLICY: Optional[ExecutionPolicy] = None

#: Stack of active context overrides (layer 2); innermost last.
_OVERRIDES: ContextVar[Tuple[ExecutionPolicy, ...]] = ContextVar(
    "repro_policy_overrides", default=())


def set_policy(policy: Optional[ExecutionPolicy]) -> None:
    """Install (or with ``None`` clear) the process-wide policy."""
    global _POLICY
    if policy is not None and not isinstance(policy, ExecutionPolicy):
        raise TypeError("set_policy expects an ExecutionPolicy or None")
    _POLICY = policy


def get_policy() -> Optional[ExecutionPolicy]:
    """The installed process-wide policy (None when not set)."""
    return _POLICY


@contextmanager
def engine(name: Optional[str] = None, *, sha256: Optional[str] = None,
           **fields: Any) -> Iterator[ExecutionPolicy]:
    """Scoped override: ``with repro.engine("scalar"): ...``; ``fields``
    are other :class:`ExecutionPolicy` fields (``executor="rpc"``, ...).
    Contexts nest, the innermost one that pins a field wins, and they
    are thread- and async-safe (a :class:`contextvars.ContextVar`)."""
    with ExecutionPolicy(engine=name, sha256_backend=sha256,
                         **fields).use() as pol:
        yield pol


# ---------------------------------------------------------------------------
# Resolution


def _resolve(knob: _Knob, explicit: Any) -> Tuple[Any, str]:
    """(value, deciding layer) of one row through the resolution order.
    Context and policy values were checked when the policy was built."""
    if explicit is not None:
        return knob.check(explicit), "explicit"
    if knob.policy:
        overrides = _OVERRIDES.get()
        if overrides:  # the common empty case skips building an iterator
            for frame in reversed(overrides):
                value = getattr(frame, knob.name)
                if value is not None:
                    return value, "context"
        if _POLICY is not None:
            value = getattr(_POLICY, knob.name)
            if value is not None:
                return value, "policy"
    raw = os.environ.get(knob.env)
    if raw is not None:
        value = knob.parse(raw, knob.check)
        if value is not _IGNORE:
            return value, "env"
    return knob.default, "default"


def resolve_engine(explicit: Union[None, bool, str] = None) -> EngineSpec:
    """The active engine; ``explicit`` is a name or a legacy bool flag."""
    return get_engine(_resolve(_ENGINE, explicit)[0])


def resolve_vectorized(explicit: Union[None, bool, str] = None) -> bool:
    """Whether the active engine runs the vectorized fast paths."""
    return get_engine(_resolve(_ENGINE, explicit)[0]).vectorized


def resolve_sha256_backend(explicit: Optional[str] = None) -> str:
    """The SHA-256 backend name."""
    return _resolve(_SHA256, explicit)[0]


def _alias(knob: _Knob, name: str = "") -> Callable[..., Tuple[Any, str]]:
    def resolve(explicit: Any = None) -> Tuple[Any, str]:
        return _resolve(knob, explicit)
    resolve.__name__ = resolve.__qualname__ = name or f"resolve_{knob.name}"
    resolve.__doc__ = (f"(``{knob.name}`` value, deciding layer); see "
                       "API.md §Execution policy.")
    return resolve


resolve_executor_name = _alias(_EXECUTOR, "resolve_executor_name")
resolve_max_workers = _alias(_MAX_WORKERS)
resolve_fleet_hosts = _alias(_FLEET_HOSTS)
resolve_fleet_sessions = _alias(_FLEET_SESSIONS)
resolve_fleet_timeout = _alias(_FLEET_TIMEOUT)
resolve_fleet_retries = _alias(_FLEET_RETRIES)
resolve_fleet_on_failure = _alias(_FLEET_ON_FAILURE)
resolve_fleet_secret = _alias(_FLEET_SECRET)
resolve_gateway_bind = _alias(_GATEWAY_BIND)
resolve_gateway_token_file = _alias(_GATEWAY_TOKEN_FILE)
resolve_search_fragment_size = _alias(_SEARCH_FRAGMENT_SIZE)
resolve_search_fragment_count = _alias(_SEARCH_FRAGMENT_COUNT)
resolve_search_max_hits = _alias(_SEARCH_MAX_HITS)


def describe_policy() -> Dict[str, object]:
    """Inspectable snapshot of the resolution: what would run now, and
    which layer decided it.  The answer an operator needs when a fleet
    node is mysteriously slow (e.g. a pinned pure SHA-256 backend)."""
    from .. import parallel  # lazy; registers the built-in executors

    snapshot: Dict[str, object] = {}
    for knob in _POLICY_KNOBS:
        value, source = _resolve(knob, None)
        if knob.secret:  # presence is operational state, the value not
            snapshot[f"{knob.name}_set"] = value is not None
        else:
            snapshot[knob.name] = value
        snapshot[knob.source_key or f"{knob.name}_source"] = source
        if knob is _ENGINE:
            snapshot["vectorized"] = get_engine(value).vectorized
    snapshot.update(available_engines=available_engines(),
                    available_executors=parallel.available_executors(),
                    installed_policy=_POLICY,
                    active_overrides=len(_OVERRIDES.get()))
    return snapshot
