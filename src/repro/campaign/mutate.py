"""The weighted mutation layer over the coverage-guided fuzzer.

:class:`WeightedFuzzer` overrides the base fuzzer's ``_choose_*`` hooks
so every argument decision consults a :class:`WeightModel`:

* **syscall mix** — op kinds are drawn proportionally to the remaining
  coverage gap of their syscall;
* **argument partitions** — numeric sizes/offsets, open flags, mode
  bits, and whence values are synthesized *inside* a partition sampled
  by weight, so an untested decade like ``2^40`` is hit directly
  instead of waiting for the mutation walk to reach it;
* **errno-provoking environments** — programs run against hostile VFS
  states (read-only, frozen, full device, exhausted quota, fd limit,
  dropped privileges) sampled from the weights of untested *output*
  partitions, closing the paper's output-coverage gap the same way
  argument bias closes the input one.

Determinism: all choices flow through the fuzzer's single seeded
``random.Random``, domains are fixed ordered lists, and weight lookups
are pure — same seed + same weight vector ⇒ byte-identical workload
(``workload_text()``), which the campaign CI gate relies on.
"""

from __future__ import annotations

from bisect import bisect
from itertools import accumulate
from math import isfinite

from repro.campaign.weights import WeightModel
from repro.testsuites.fuzzer import _OP_KINDS, CoverageGuidedFuzzer, FuzzProgram
from repro.vfs import constants
from repro.vfs.filesystem import FileSystem
from repro.vfs.path import Credentials
from repro.vfs.syscalls import SyscallInterface

#: Which (syscall, arg) domain each op kind's ``size`` slot feeds.
_SIZE_ARGS = {
    "read": ("read", "count"),
    "write": ("write", "count"),
    "lseek": ("lseek", "offset"),
    "truncate": ("truncate", "length"),
    "setxattr": ("setxattr", "size"),
    "getxattr": ("getxattr", "size"),
}

#: Which (syscall, arg) domain each op kind's ``mode`` slot feeds.
_MODE_ARGS = {
    "open": ("open", "mode"),
    "mkdir": ("mkdir", "mode"),
    "chmod": ("chmod", "mode"),
}

#: The (syscall, arg) domains of the flags and whence slots.
_FLAGS_ARG = ("open", "flags")
_WHENCE_ARG = ("lseek", "whence")

#: Open-flag partitions the modifier draws pick from.
_MODIFIER_KEYS = {*constants.OPEN_MODIFIER_FLAGS, "unknown_bits"}

#: An open-flag bit no known flag occupies (lands in "unknown_bits").
_UNKNOWN_OPEN_BIT = next(
    1 << bit
    for bit in range(20, 40)
    if not any((1 << bit) & value for value in constants.OPEN_FLAG_NAMES.values())
)

#: A mode bit above the 0o7777 permission field ("unknown_bits").
_UNKNOWN_MODE_BIT = 0o10000

#: Out-of-domain whence value (the "invalid" categorical partition).
_INVALID_WHENCE = 99

#: The unprivileged uid/gid environments drop to (mirrors the suites'
#: tester identity).
_DROPPED_UID = 1000

#: Errno -> environment setup.  Each callable hostile-izes a program's
#: volume after the mount point exists; only errnos listed here are
#: reachable by state setup alone (the rest need specific arguments,
#: which the input weights already steer toward).
_ENV_ERRNOS = ("EROFS", "EBUSY", "ENOSPC", "EDQUOT", "EMFILE", "EACCES")


def _choice_table(keys: list[str], weights) -> tuple[list[str], list[float], float]:
    """Keys, cumulative weights and their total, checked once the way
    ``random.choices`` checks them on every call.

    Raises:
        ValueError: the total is not positive, or not finite.
    """
    cum_weights = list(accumulate(weights))
    total = cum_weights[-1] + 0.0
    if total <= 0.0:
        raise ValueError("Total of weights must be greater than zero")
    if not isfinite(total):
        raise ValueError("Total of weights must be finite")
    return keys, cum_weights, total


class WeightedFuzzer(CoverageGuidedFuzzer):
    """A :class:`CoverageGuidedFuzzer` biased by a :class:`WeightModel`.

    The weight model is fixed for one round, so each choice table (keys,
    cumulative weights and their total) is built once, and a draw is the
    one ``bisect`` that ``random.choices`` would evaluate on it.

    Args:
        weights: the round's weight model (uniform = unbiased).
        pristine_weight: relative weight of running a program against a
            pristine (non-hostile) VFS when errno environments are
            targeted; higher keeps more input-coverage throughput.
    """

    def __init__(
        self,
        weights: WeightModel | None = None,
        seed: int = 0,
        guided: bool = True,
        mount_point: str = "/mnt/fuzz",
        pristine_weight: float = 24.0,
    ) -> None:
        super().__init__(seed=seed, guided=guided, mount_point=mount_point)
        self.weights = weights or WeightModel.uniform()
        self.pristine_weight = pristine_weight
        #: every executed program, in execution order (the workload).
        self.programs: list[FuzzProgram] = []
        self._tables = self._build_tables()
        self._env_domain, env_weights = self._build_env_table()
        #: drawn from only when some environment is targeted
        self._env_table = (
            _choice_table(self._env_domain, env_weights)
            if len(self._env_domain) > 1
            else None
        )

    # -- weighted choice hooks -------------------------------------------------

    def _build_tables(self) -> dict:
        """Choice tables: op kinds, then one per weighted argument."""
        kinds = [kind for kind in self.coverage.registry if kind in _OP_KINDS]
        tables: dict = {
            "kind": _choice_table(kinds, map(self.weights.syscall_weight, kinds))
        }
        for pair in (*_SIZE_ARGS.values(), *_MODE_ARGS.values(), _WHENCE_ARG):
            tables[pair] = self._partition_table(pair, self.coverage.arg(*pair).domain())
        flags = self.coverage.arg(*_FLAGS_ARG).domain()
        access = [k for k in flags if k in constants.OPEN_ACCESS_MODES]
        modifiers = [k for k in flags if k in _MODIFIER_KEYS]
        tables["access"] = self._partition_table(_FLAGS_ARG, access)
        tables["modifiers"] = self._partition_table(_FLAGS_ARG, modifiers)
        return tables

    def _partition_table(
        self, pair: tuple[str, str], keys: list[str]
    ) -> tuple[list[str], list[float], float]:
        weights = self.weights.input_weights.get(pair, {})
        return _choice_table(keys, (max(1.0, weights.get(key, 1.0)) for key in keys))

    def _draw(self, table: tuple[list[str], list[float], float]) -> str:
        """``rng.choices(keys, cum_weights=cum_weights)[0]``, without
        re-checking the table."""
        keys, cum_weights, total = table
        return keys[bisect(cum_weights, self.rng.random() * total, 0, len(keys) - 1)]

    def _choose_kind(self) -> str:
        return self._draw(self._tables["kind"])

    def _choose_size(self, kind: str) -> int:
        pair = _SIZE_ARGS.get(kind)
        if pair is None:
            return super()._choose_size(kind)
        return self._numeric_in_partition(self._draw(self._tables[pair]))

    def _numeric_in_partition(self, key: str) -> int:
        """A concrete value inside the named numeric partition."""
        if key == "negative":
            return -(1 << self.rng.randint(0, 31))
        if key == "equal_to_0":
            return 0
        if key.startswith(">=2^"):
            return (1 << int(key[4:])) + self.rng.randrange(1 << 8)
        if key.startswith("2^"):
            exponent = int(key[2:])
            base = 1 << exponent
            return base + (self.rng.randrange(base) if exponent else 0)
        return super()._choose_size("")  # unknown key: fall back

    def _choose_flags(self) -> int:
        flags = constants.OPEN_ACCESS_MODES[self._draw(self._tables["access"])]
        modifiers = self._tables["modifiers"]
        for _ in range(self.rng.randint(0, 3)):
            name = self._draw(modifiers)
            if name == "unknown_bits":
                flags |= _UNKNOWN_OPEN_BIT
            else:
                flags |= constants.OPEN_MODIFIER_FLAGS[name]
        return flags

    def _choose_mode(self, kind: str) -> int:
        pair = _MODE_ARGS.get(kind)
        if pair is None:
            return super()._choose_mode(kind)
        table = self._tables[pair]
        mode = 0
        for _ in range(self.rng.randint(1, 3)):
            name = self._draw(table)
            if name == "unknown_bits":
                mode |= _UNKNOWN_MODE_BIT
            elif name in constants.MODE_BIT_NAMES:
                mode |= constants.MODE_BIT_NAMES[name]
            # "0" contributes no bits: the zero-mode partition.
        return mode

    def _choose_whence(self) -> int:
        name = self._draw(self._tables[_WHENCE_ARG])
        if name == "invalid":
            return _INVALID_WHENCE
        return constants.SEEK_WHENCE_NAMES.get(name, constants.SEEK_SET)

    # -- errno environments ----------------------------------------------------

    def _build_env_table(self) -> tuple[list[str], list[float]]:
        """Environment domain + weights from the errno targets.

        An environment's weight is the *strongest* pull any syscall has
        toward its errno; the pristine environment keeps a fixed large
        weight so most programs still run on a healthy volume.
        """
        domain = [""]
        weights = [self.pristine_weight]
        targeted = self.weights.targeted_errnos()
        for env in _ENV_ERRNOS:
            strongest = max(
                (
                    self.weights.errno_weight(syscall, env)
                    for syscall, errnos in targeted.items()
                    if env in errnos
                ),
                default=1.0,
            )
            if strongest > 1.0:
                domain.append(env)
                weights.append(strongest)
        return domain, weights

    def _choose_env(self) -> str:
        if self._env_table is None:
            return ""
        return self._draw(self._env_table)

    def _setup_environment(
        self, program: FuzzProgram, fs: FileSystem, sc: SyscallInterface
    ) -> None:
        env = program.env
        if not env:
            return
        if env == "EROFS":
            fs.read_only = True
        elif env == "EBUSY":
            fs.frozen = True
        elif env == "ENOSPC":
            fs.device.reserve_all_free()
        elif env == "EDQUOT":
            # Exhaust the quota for an unprivileged uid, then run as it.
            sc.process.creds = Credentials(uid=_DROPPED_UID, gid=_DROPPED_UID)
            sc.chmod(self.mount_point, 0o777)
            fs.set_quota(_DROPPED_UID, 1)
        elif env == "EMFILE":
            sc.process.fd_table.max_fds = 1
        elif env == "EACCES":
            # Root-owned 0700 mount: every path op as the dropped uid
            # fails the search-permission check.
            sc.chmod(self.mount_point, 0o700)
            sc.process.creds = Credentials(uid=_DROPPED_UID, gid=_DROPPED_UID)

    # -- workload capture ------------------------------------------------------

    def _execute(self, program: FuzzProgram) -> list:
        self.programs.append(program)
        return super()._execute(program)

    def workload_text(self) -> str:
        """Every executed program rendered, in order (byte-stable)."""
        return "\n\n".join(program.render() for program in self.programs)
