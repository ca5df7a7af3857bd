"""Settings-driven gateway configuration: a deployment is environment
variables, not code.

:class:`GatewaySettings` gathers everything ``python -m repro.gateway
serve`` needs.  Every value is a row of the policy table in
:mod:`repro.api.policy` (listed in API.md §Execution policy) and
resolves through its one walk, the deciding layer recorded:

* **bind address** — a policy row: explicit > ``repro.engine(...)``
  context > installed policy > ``REPRO_GATEWAY_BIND`` > loopback
  ``127.0.0.1:8473``;
* **credentials** — explicit spec > explicit file > the inline
  ``REPRO_GATEWAY_TOKENS`` spec > the ``gateway_token_file`` policy
  row (``REPRO_GATEWAY_TOKEN_FILE``); the inline variable is the
  container-native deployment and the file the mounted-secret one.
  With neither, the gateway refuses to start;
* **fleet shape and lock mode** — gateway rows with no policy field
  (the fleet *shape* is a service property, not an execution-policy
  switch): explicit > ``REPRO_GATEWAY_MEMBERS`` / ``_SEED`` /
  ``_BLOCKS`` / ``_LOCK_MODE`` > default.  A bad value raises
  ``ConfigurationError``.

The *dispatch* of the fleet (executor, worker hosts, sessions,
timeouts, degrade mode, HMAC secret) is deliberately not re-plumbed
here: ``FleetStore`` resolves it through the policy chain at each
pass, so ``REPRO_FLEET_HOSTS=... REPRO_FLEET_EXECUTOR=rpc python -m
repro.gateway serve`` is a remote-fleet deployment with zero
gateway-specific wiring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..api import policy as _policy
from ..api.fleet import FleetStore
from ..api.store import StoreConfig
from ..errors import ConfigurationError
from .auth import TokenTable

#: The fleet shape the serve CLI provisions: gateway rows of the policy
#: table, so each name here is an alias of its row.
GATEWAY_MEMBERS_ENV_VAR = _policy._GATEWAY_MEMBERS.env
GATEWAY_SEED_ENV_VAR = _policy._GATEWAY_SEED.env
GATEWAY_BLOCKS_ENV_VAR = _policy._GATEWAY_BLOCKS.env

#: ``shard`` (default) dispatches tenant requests under per-member
#: footprint locks so disjoint-member traffic overlaps; ``single``
#: restores the one-big-lock gateway (the concurrency baseline).
GATEWAY_LOCK_MODE_ENV_VAR = _policy._GATEWAY_LOCK_MODE.env

DEFAULT_GATEWAY_MEMBERS = _policy._GATEWAY_MEMBERS.default
DEFAULT_GATEWAY_SEED = _policy._GATEWAY_SEED.default
DEFAULT_GATEWAY_BLOCKS = _policy._GATEWAY_BLOCKS.default
DEFAULT_GATEWAY_LOCK_MODE = _policy._GATEWAY_LOCK_MODE.default


@dataclass
class GatewaySettings:
    """Resolved gateway deployment configuration (see module doc)."""

    host: str
    port: int
    bind_source: str
    tokens: TokenTable
    tokens_source: str
    members: int = DEFAULT_GATEWAY_MEMBERS
    seed: int = DEFAULT_GATEWAY_SEED
    total_blocks: int = DEFAULT_GATEWAY_BLOCKS
    lock_mode: str = DEFAULT_GATEWAY_LOCK_MODE
    extra: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def resolve(cls, *, bind: Optional[str] = None,
                tokens: Optional[str] = None,
                token_file: Optional[str] = None,
                members: Optional[int] = None,
                seed: Optional[int] = None,
                total_blocks: Optional[int] = None,
                lock_mode: Optional[str] = None) -> "GatewaySettings":
        """Resolve every knob through its chain and record sources.

        ``tokens`` is an inline token spec string (the
        ``REPRO_GATEWAY_TOKENS`` syntax); ``token_file`` a path to
        one.  Explicit spec > explicit file > env spec > resolved
        file (context/policy/env).
        """
        bind_value, bind_source = _policy.resolve_gateway_bind(bind)
        host, _sep, port_text = bind_value.rpartition(":")
        table, tokens_source = cls._resolve_tokens(tokens, token_file)
        return cls(
            host=host, port=int(port_text), bind_source=bind_source,
            tokens=table, tokens_source=tokens_source,
            members=_policy._resolve(_policy._GATEWAY_MEMBERS, members)[0],
            seed=_policy._resolve(_policy._GATEWAY_SEED, seed)[0],
            total_blocks=_policy._resolve(
                _policy._GATEWAY_BLOCKS, total_blocks)[0],
            lock_mode=_policy._resolve(
                _policy._GATEWAY_LOCK_MODE, lock_mode)[0])

    @staticmethod
    def _resolve_tokens(tokens: Optional[str],
                        token_file: Optional[str]) -> "tuple[TokenTable, str]":
        if tokens is not None or token_file is None:
            tokens, source = _policy._resolve(_policy._GATEWAY_TOKENS,
                                              tokens)
            if tokens is not None:
                where = "explicit spec" if source == "explicit" \
                    else _policy.GATEWAY_TOKENS_ENV_VAR
                return TokenTable.from_spec(tokens, where=where), source
        token_file, file_source = \
            _policy.resolve_gateway_token_file(token_file)
        if token_file is None:
            raise ConfigurationError(
                "no gateway credentials configured: set "
                f"{_policy.GATEWAY_TOKENS_ENV_VAR} to an inline token "
                f"spec, or point {_policy.GATEWAY_TOKEN_FILE_ENV_VAR} "
                "(or the gateway_token_file policy field) at a token "
                "file")
        try:
            with open(token_file, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read gateway token file {token_file!r}: "
                f"{exc}") from exc
        return TokenTable.from_spec(text, where=token_file), \
            f"token_file ({file_source})"

    @property
    def bind(self) -> str:
        return f"{self.host}:{self.port}"

    def build_fleet(self) -> FleetStore:
        """Provision the fleet this gateway fronts.

        Members keep instruction logs (``audit_log=True``) so the
        admin ``history`` endpoint has records to serve; dispatch
        executor/hosts/faults resolve per pass through the policy
        chain, untouched by this object.
        """
        return FleetStore.create(
            self.members,
            StoreConfig(total_blocks=self.total_blocks, audit_log=True),
            seed=self.seed, lock_mode=self.lock_mode)

    def describe(self) -> Dict[str, Any]:
        """Deployment diagnostics for the admin ``describe`` endpoint
        — sources, never secret material (token count only), plus the
        fleet-dispatch policy picture the service will run under."""
        return {
            "bind": self.bind,
            "bind_source": self.bind_source,
            "tokens": len(self.tokens),
            "tokens_source": self.tokens_source,
            "members": self.members,
            "seed": self.seed,
            "total_blocks": self.total_blocks,
            "lock_mode": self.lock_mode,
            "policy": {
                key: value
                for key, value in _policy.describe_policy().items()
                if key.startswith(("executor", "fleet_", "gateway_",
                                   "max_workers"))
            },
        }
