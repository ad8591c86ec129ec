"""String-key registry lint: every config key, counter and feature
flag must be registered in :mod:`repro.common.keys`.

Configuration keys and counter names are bare strings at every call
site; a typo silently becomes a default-valued knob or a new counter
nobody reads. This pass statically resolves the key argument of
``conf.set/get*/require`` calls and the ``(group, name)`` arguments of
``Counters.increment`` / ``TaskContext.count`` / ``Counters.get`` calls
— through string literals, module-level constants, constants imported
from the registry, and f-string prefixes — and checks them against the
registry:

* ``KEYS001`` — config key (dotted literal) not registered;
* ``KEYS002`` — counter group not registered;
* ``KEYS003`` — counter name not registered for its group;
* ``KEYS004`` — registry entry never referenced anywhere (warning);
* ``KEYS005`` — a string literal squats on a reserved namespace
  (``clydesdale.cache.*`` / ``clydesdale.serve.*`` config keys, or
  ``ht_cache_*`` counter names) without being registered. Unlike
  KEYS001/KEYS003 this fires on *any* literal, not just resolved call
  sites: serving-layer keys travel through dicts and cache-key tuples
  where call-site resolution cannot see them;
* ``FLAG001`` — a registered feature flag has no default, or its key
  string never appears in ``DESIGN.md`` (a flag read with inline
  defaults forks behavior between call sites; an undocumented flag is
  never cleaned up);
* ``FLAG002`` — a ``get_bool(...)`` call reads a dotted key that is not
  registered as a feature flag (in place of KEYS001 for that call).

Dict-style ``.get("name")`` calls are ignored unless the key contains a
dot (configuration style) or the group argument resolves to a known
counter group, which keeps ordinary dict access out of scope.
"""

from __future__ import annotations

import ast

from repro.analyze.findings import Finding, Severity
from repro.analyze.framework import AnalysisContext, AnalysisPass, SourceModule
from repro.common import keys as default_registry

CONF_METHODS = frozenset({"set", "get", "get_int", "get_float", "get_bool",
                          "get_json", "require"})

#: Config-key namespaces owned by the registry: any literal in them
#: must be a registered key (KEYS005).
RESERVED_KEY_PREFIXES = ("clydesdale.cache.", "clydesdale.serve.")

#: Counter-name prefix owned by the registry, with its group.
RESERVED_COUNTER_PREFIX = "ht_cache_"
RESERVED_COUNTER_GROUP = "clydesdale"


#: Prefix of an f-string key/name (checked against registered prefixes).
class _Prefix(str):
    pass


class StringKeyRegistryPass(AnalysisPass):
    """Checks key/counter call sites against ``repro.common.keys``."""

    pass_id = "keys"
    description = ("config keys, counter (group, name) pairs and feature "
                   "flags must be registered in repro.common.keys; flags "
                   "need a default and a DESIGN.md mention")

    REGISTRY_PATH_SUFFIX = "repro/common/keys.py"

    def __init__(self, registry=None, flags: dict | None = None):
        self.registry = registry or default_registry
        #: Fixture override: {key_name: ConfigKey-like with .default};
        #: None checks the registry's own flags.
        self.flags = flags
        self.flag_names = frozenset(
            flags if flags is not None else self.registry.feature_flags())
        self.constants = dict(self.registry.constant_names())
        # Counters class attributes (GROUP_MAP etc.) alias registry groups.
        try:
            from repro.mapreduce.counters import Counters
            for name, value in vars(Counters).items():
                if name.startswith("GROUP_") and isinstance(value, str):
                    self.constants.setdefault(name, value)
        except ImportError:  # registry-only analysis still works
            pass

    def run(self, context: AnalysisContext) -> list[Finding]:
        findings: list[Finding] = []
        referenced: set[str] = set()
        for mod in context.modules:
            if mod.tree is None:
                continue
            if mod.path.endswith(self.REGISTRY_PATH_SUFFIX):
                continue
            findings.extend(self._check_module(mod, referenced))
        if context.root is not None:
            findings.extend(self._unused_entries(context, referenced))
        findings.extend(self._check_flags(context))
        return findings

    # -- resolution ----------------------------------------------------- #

    def _module_env(self, tree: ast.Module) -> dict[str, str]:
        """Name -> string value for this module's own constants."""
        env: dict[str, str] = {}
        for stmt in tree.body:
            if (isinstance(stmt, ast.Assign)
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str)):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        env[target.id] = stmt.value.value
            elif isinstance(stmt, ast.ImportFrom):
                for alias in stmt.names:
                    value = self.constants.get(alias.name)
                    if value is not None:
                        env[alias.asname or alias.name] = value
        return env

    def _resolve(self, node: ast.AST, env: dict[str, str]) -> str | None:
        """Resolve a key/name argument to a string or f-string prefix."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            return env.get(node.id, self.constants.get(node.id))
        if isinstance(node, ast.Attribute):
            return self.constants.get(node.attr)
        if isinstance(node, ast.JoinedStr):
            prefix_parts: list[str] = []
            for value in node.values:
                if isinstance(value, ast.Constant):
                    prefix_parts.append(str(value.value))
                else:
                    break
            return _Prefix("".join(prefix_parts))
        return None

    # -- checks --------------------------------------------------------- #

    def _check_module(self, mod: SourceModule,
                      referenced: set[str]) -> list[Finding]:
        findings: list[Finding] = []
        env = self._module_env(mod.tree)
        referenced.update(env.values())
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                referenced.add(node.value)
                findings.extend(self._check_reserved(mod, node, node.value))
            elif isinstance(node, ast.Name):
                value = self.constants.get(node.id)
                if value is not None:
                    referenced.add(value)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    value = self.constants.get(alias.asname or alias.name)
                    if value is not None:
                        referenced.add(value)
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr in CONF_METHODS:
                findings.extend(
                    self._check_conf_call(mod, node, env))
            if func.attr in ("increment", "count"):
                findings.extend(
                    self._check_counter_call(mod, node, env))
        return findings

    def _check_conf_call(self, mod: SourceModule, call: ast.Call,
                         env: dict[str, str]) -> list[Finding]:
        if not call.args:
            return []
        key = self._resolve(call.args[0], env)
        if isinstance(key, _Prefix) or key is None:
            return []
        if "." not in key:
            # Could as well be a counter read: Counters.get(group, name).
            if (call.func.attr == "get" and len(call.args) == 2
                    and key in self.registry.COUNTER_GROUPS):
                return self._check_counter_pair(
                    mod, call, key, self._resolve(call.args[1], env))
            return []  # dict-style access, out of scope
        if call.func.attr == "get_bool" and key not in self.flag_names:
            return [self.finding(
                mod, call, "FLAG002",
                f"get_bool reads {key!r}, which is not registered as a "
                f"feature flag in repro.common.keys")]
        if self.registry.is_registered_key(key):
            return []
        return [self.finding(
            mod, call, "KEYS001",
            f"configuration key {key!r} is not registered in "
            f"repro.common.keys")]

    def _check_counter_call(self, mod: SourceModule, call: ast.Call,
                            env: dict[str, str]) -> list[Finding]:
        if len(call.args) < 2:
            return []
        if call.func.attr == "count" and not self._counter_receiver(call):
            return []  # str.count / list.count, not a counter
        group = self._resolve(call.args[0], env)
        if group is None or isinstance(group, _Prefix):
            return []
        if call.func.attr == "count" \
                and group not in self.registry.COUNTER_GROUPS:
            return [self.finding(
                mod, call, "KEYS002",
                f"counter group {group!r} is not registered in "
                f"repro.common.keys")]
        if group not in self.registry.COUNTER_GROUPS:
            return [self.finding(
                mod, call, "KEYS002",
                f"counter group {group!r} is not registered in "
                f"repro.common.keys")]
        return self._check_counter_pair(
            mod, call, group, self._resolve(call.args[1], env))

    def _check_counter_pair(self, mod: SourceModule, call: ast.Call,
                            group: str, name) -> list[Finding]:
        if name is None:
            return []
        if isinstance(name, _Prefix):
            if any(g == group and name.startswith(prefix)
                   for g, prefix in self.registry.COUNTER_PREFIXES):
                return []
            return [self.finding(
                mod, call, "KEYS003",
                f"dynamic counter {group}/{name}* matches no registered "
                f"prefix in repro.common.keys")]
        if self.registry.is_registered_counter(group, name):
            return []
        return [self.finding(
            mod, call, "KEYS003",
            f"counter ({group!r}, {name!r}) is not registered in "
            f"repro.common.keys")]

    def _check_reserved(self, mod: SourceModule, node: ast.AST,
                        value: str) -> list[Finding]:
        """KEYS005: reserved-namespace literals must be registered."""
        for prefix in RESERVED_KEY_PREFIXES:
            if (value.startswith(prefix) and value != prefix
                    and not self.registry.is_registered_key(value)):
                return [self.finding(
                    mod, node, "KEYS005",
                    f"literal {value!r} squats on the reserved "
                    f"configuration namespace {prefix}* but is not "
                    f"registered in repro.common.keys")]
        if (value.startswith(RESERVED_COUNTER_PREFIX)
                and value != RESERVED_COUNTER_PREFIX
                and not self.registry.is_registered_counter(
                    RESERVED_COUNTER_GROUP, value)):
            return [self.finding(
                mod, node, "KEYS005",
                f"literal {value!r} squats on the reserved counter-name "
                f"namespace {RESERVED_COUNTER_PREFIX}* "
                f"({RESERVED_COUNTER_GROUP} group) but is not "
                f"registered in repro.common.keys")]
        return []

    @staticmethod
    def _counter_receiver(call: ast.Call) -> bool:
        """Heuristic: ``context.count`` / ``*counters*.count`` only."""
        base = call.func.value
        if isinstance(base, ast.Name):
            return base.id == "context" or "counter" in base.id.lower()
        if isinstance(base, ast.Attribute):
            return "counter" in base.attr.lower()
        return False

    # -- registry entries ------------------------------------------------ #

    def _check_flags(self, context: AnalysisContext) -> list[Finding]:
        """FLAG001: every flag has a default and a DESIGN.md mention."""
        flags = self.flags
        if flags is None:
            # The registry's flags are documented in a checkout's
            # DESIGN.md; with no DESIGN.md text there is nothing to
            # check them against.
            if not context.design_text:
                return []
            flags = self.registry.feature_flags()
        registry_mod = (context.module(self.REGISTRY_PATH_SUFFIX)
                        or SourceModule(path="repro/common/keys.py",
                                        text=""))
        findings: list[Finding] = []
        for name, key in sorted(flags.items()):
            if key.default is None:
                findings.append(self.finding(
                    registry_mod, None, "FLAG001",
                    f"feature flag {name!r} is registered without a "
                    f"default value"))
            if name not in context.design_text:
                findings.append(self.finding(
                    registry_mod, None, "FLAG001",
                    f"feature flag {name!r} is not mentioned in DESIGN.md"))
        return findings

    def _unused_entries(self, context: AnalysisContext,
                        referenced: set[str]) -> list[Finding]:
        registry_mod = context.module(self.REGISTRY_PATH_SUFFIX)
        if registry_mod is None:
            return []
        findings = []
        for name in sorted(self.registry.CONFIG_KEYS):
            if name not in referenced:
                findings.append(self.finding(
                    registry_mod, None, "KEYS004",
                    f"registered configuration key {name!r} is never "
                    f"referenced outside the registry",
                    severity=Severity.WARNING))
        for group, name in sorted(self.registry.COUNTERS):
            if name not in referenced:
                findings.append(self.finding(
                    registry_mod, None, "KEYS004",
                    f"registered counter ({group!r}, {name!r}) is never "
                    f"referenced outside the registry",
                    severity=Severity.WARNING))
        return findings
