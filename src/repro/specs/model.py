"""The declarative run-spec layer: every workload as serializable data.

A *spec* is a frozen dataclass describing one study — a fault-injection
campaign, a survival analysis, or a temporal chaos run — completely:
the network (by file path or deterministic builder recipe), the fault
model, the scenario sampler, the engine parameters, and for chaos runs
the process/detector/policy/traffic quadruple.  Specs are

* **validated eagerly** — every constraint the run layers would reject
  is checked at construction, so a bad spec fails where it is built,
  not ten minutes into a campaign;
* **serializable** — ``to_dict``/``from_dict`` round-trip through plain
  JSON (``to_json``/``load_spec``); ``from_dict`` is strict: unknown
  keys, missing required keys, and ``spec_version`` mismatches all
  raise :class:`SpecError`;
* **schema-versioned** — every serialized spec carries
  ``spec_version``; bumping :data:`SPEC_VERSION` invalidates stored
  specs explicitly instead of silently reinterpreting them;
* **content-hashable** — :meth:`Spec.content_hash` digests the
  canonical JSON form, which is what the
  :class:`~repro.artifacts.ArtifactStore` keys caching and replay on
  for spec-declaring experiments.

The lowering from specs onto the mask-native engines lives in
:mod:`repro.specs.dispatch` (``repro.run``); this module is pure data
and never imports the heavy numerical machinery.  The spec verbs'
command-line flags are data here too: each verb's ``cli_flags`` table
(:class:`Flag` rows) is the only place a spec field is exposed on the
CLI, and :mod:`repro.cli` generates its parsers from it.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Type

__all__ = [
    "SPEC_VERSION",
    "SpecError",
    "Spec",
    "NetworkRef",
    "FaultSpec",
    "StoppingSpec",
    "SamplerSpec",
    "EngineSpec",
    "ObsSpec",
    "CampaignSpec",
    "SurvivalSpec",
    "ProcessSpec",
    "DetectorSpec",
    "PolicySpec",
    "TrafficSpec",
    "TelemetrySpec",
    "ChaosSpec",
    "ServiceSpec",
    "spec_from_dict",
    "load_spec",
    "save_spec",
    "FAULT_KINDS",
    "SAMPLER_KINDS",
    "STOPPING_METHODS",
    "ALLOCATION_KINDS",
    "ENGINE_BACKENDS",
    "PROCESS_KINDS",
    "DETECTOR_KINDS",
    "POLICY_KINDS",
    "TRAFFIC_KINDS",
]

#: Schema version stamped into every serialized spec.  Readers reject
#: any other value — stored specs never get silently reinterpreted.
SPEC_VERSION = 1


class SpecError(ValueError):
    """A spec failed validation or deserialization."""


def _jsonify(value: Any) -> Any:
    """Plain-JSON view of a spec field value (tuples become lists)."""
    if isinstance(value, Spec):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [_jsonify(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _jsonify(value[k]) for k in value}
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    raise SpecError(
        f"spec field value {value!r} of type {type(value).__name__} is "
        "not JSON-serializable"
    )


#: ``spec`` tag -> dataclass, filled by :func:`_register`.
_SPEC_TYPES: Dict[str, Type["Spec"]] = {}


def _register(tag: str):
    def decorate(cls):
        cls.spec_tag = tag
        _SPEC_TYPES[tag] = cls
        return cls

    return decorate


class Spec:
    """Base for every run-spec dataclass: strict (de)serialization,
    canonical JSON, and content hashing.

    Subclasses declare ``_nested`` (field name -> spec class) and
    ``_nested_tuples`` (field name -> element spec class) so
    ``from_dict`` can rebuild the object graph from plain JSON;
    plain-value tuples (failure distributions, tolerated counts) are
    normalised by each class's ``__post_init__``.  The spec verbs also
    declare ``cli_flags``, the table the CLI parser and its lowering
    are generated from.
    """

    spec_tag: str = ""
    _nested: Dict[str, type] = {}
    _nested_tuples: Dict[str, type] = {}
    #: The verb's CLI flags (:class:`Flag` rows) — the one place a
    #: spec field is exposed on the command line.
    cli_flags: Tuple["Flag", ...] = ()
    #: Fields omitted from ``to_dict`` while ``None`` — the mechanism
    #: for adding optional fields to an existing schema without
    #: invalidating stored specs: an absent key deserializes to the
    #: ``None`` default, so old payloads round-trip byte-identically
    #: and keep their content hashes.
    _omit_if_none: Tuple[str, ...] = ()

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-JSON dict with the ``spec`` tag and ``spec_version``."""
        out: Dict[str, Any] = {
            "spec": self.spec_tag,
            "spec_version": SPEC_VERSION,
        }
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is None and f.name in self._omit_if_none:
                continue
            out[f.name] = _jsonify(value)
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "Spec":
        """Strict inverse of :meth:`to_dict`.

        Raises :class:`SpecError` on a wrong/missing ``spec`` tag, a
        ``spec_version`` mismatch, unknown keys, missing required keys,
        or a wrongly typed value; optional keys fall back to their
        field defaults.
        """
        if not isinstance(data, Mapping):
            raise SpecError(
                f"{cls.spec_tag} spec must be a mapping, got "
                f"{type(data).__name__}"
            )
        payload = dict(data)
        tag = payload.pop("spec", None)
        if tag != cls.spec_tag:
            raise SpecError(
                f"expected spec tag {cls.spec_tag!r}, got {tag!r}"
            )
        version = payload.pop("spec_version", None)
        if isinstance(version, bool) or version != SPEC_VERSION:
            raise SpecError(
                f"spec_version mismatch for {cls.spec_tag!r}: stored "
                f"{version!r}, this build reads {SPEC_VERSION}"
            )
        kwargs: Dict[str, Any] = {}
        for f in dataclasses.fields(cls):
            if f.name in payload:
                value = payload.pop(f.name)
                if f.name in cls._nested and value is not None:
                    value = cls._nested[f.name].from_dict(value)
                elif f.name in cls._nested_tuples and value is not None:
                    element = cls._nested_tuples[f.name]
                    if not isinstance(value, (list, tuple)):
                        raise SpecError(
                            f"malformed {cls.spec_tag!r} spec: {f.name!r} "
                            f"must be a list, got {type(value).__name__}"
                        )
                    value = tuple(element.from_dict(item) for item in value)
                kwargs[f.name] = value
            elif (
                f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING
            ):
                raise SpecError(
                    f"{cls.spec_tag} spec is missing required key {f.name!r}"
                )
        if payload:
            raise SpecError(
                f"unknown key(s) {sorted(payload)} in {cls.spec_tag!r} spec"
            )
        try:
            return cls(**kwargs)
        except SpecError:
            raise
        except (TypeError, ValueError) as exc:
            # A wrongly typed value ("batch": "x") fails inside a
            # comparison or cast in __post_init__; name the spec so the
            # caller gets a typed error, not a bare TypeError.
            raise SpecError(
                f"malformed {cls.spec_tag!r} spec: {exc}"
            ) from None

    def to_json(self) -> str:
        """Stable pretty JSON (sorted keys, trailing newline) — the
        ``--dump-spec`` format, byte-identical across round-trips."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def canonical_json(self) -> str:
        """Minimal sorted-key JSON, the hashing pre-image."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    def content_hash(self) -> str:
        """16-hex-digit digest of the canonical JSON form — the cache /
        replay key (two specs collide iff they describe the same run)."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]

    def replace(self, **changes) -> "Spec":
        """A copy with ``changes`` applied (re-validated eagerly)."""
        return dataclasses.replace(self, **changes)

    # -- shared validation helpers ----------------------------------------

    def _freeze(self, name: str, value) -> None:
        object.__setattr__(self, name, value)

    @staticmethod
    def _require(condition: bool, message: str) -> None:
        if not condition:
            raise SpecError(message)

    def _require_int(self, name: str, minimum: int) -> None:
        """Field ``name`` holds an integer >= ``minimum`` (or ``None``
        where that is the field's default).

        A JSON payload can hand a count or a seed ``1.5``, ``true`` or
        ``1e308``; a bare ``>=`` admits all three (``True >= 1``) and
        they fail only deep inside a run.  Bools and floats are
        rejected; integral values (numpy integers too) are frozen as a
        plain ``int``.  There is no upper bound: large seeds are valid.
        """
        value = getattr(self, name)
        if type(value) is int and value >= minimum:  # cheap common case
            return
        if value is None and self.__dataclass_fields__[name].default is None:
            return
        self._freeze(name, self._as_int(value, minimum, name))

    @classmethod
    def _as_int(cls, value, minimum: int, label: str) -> int:
        """``value`` as a plain ``int``; a SpecError unless it is an
        integer (not a bool) >= ``minimum``."""
        cls._require(
            isinstance(value, numbers.Integral)
            and not isinstance(value, bool)
            and value >= minimum,
            f"{label} must be an integer >= {minimum}, got {value!r}",
        )
        return int(value)

    def _validate_nested(self) -> None:
        """Nested spec fields hold the right spec type (or None only
        where the field defaults to None) — so a stored payload with
        ``"network": null`` fails as a SpecError at construction, not
        as an AttributeError deep inside a run."""
        fields_by_name = {f.name: f for f in dataclasses.fields(self)}
        for name, expected in self._nested.items():
            value = getattr(self, name)
            if value is None:
                self._require(
                    fields_by_name[name].default is None,
                    f"{self.spec_tag} spec field {name!r} may not be null",
                )
                continue
            self._require(
                isinstance(value, expected),
                f"{self.spec_tag} spec field {name!r} must be a "
                f"{expected.__name__}, got {type(value).__name__}",
            )
        for name, expected in self._nested_tuples.items():
            value = getattr(self, name)
            self._require(
                value is not None,
                f"{self.spec_tag} spec field {name!r} may not be null",
            )
            for item in value:
                self._require(
                    isinstance(item, expected),
                    f"{self.spec_tag} spec field {name!r} entries must "
                    f"be {expected.__name__}, got {type(item).__name__}",
                )


def spec_from_dict(data: Mapping) -> Spec:
    """Rebuild any spec from its ``to_dict`` form via the ``spec`` tag."""
    if not isinstance(data, Mapping):
        raise SpecError(f"spec payload must be a mapping, got {type(data).__name__}")
    tag = data.get("spec")
    cls = _SPEC_TYPES.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise SpecError(
            f"unknown spec tag {tag!r}; known tags: {sorted(_SPEC_TYPES)}"
        )
    return cls.from_dict(data)


def load_spec(path: "str | Path") -> Spec:
    """Read a JSON spec file written by :func:`save_spec` / ``--dump-spec``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path} is not valid JSON: {exc}") from None
    return spec_from_dict(data)


def save_spec(spec: Spec, path: "str | Path") -> Path:
    """Write ``spec`` as pretty JSON; returns the path."""
    path = Path(path)
    path.write_text(spec.to_json(), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# CLI flag tables
# ---------------------------------------------------------------------------


def _bounded(cast, minimum, message, *, maximum=None, exclusive=False):
    """An argparse type: ``cast`` the token, reject values < ``minimum``
    (or ``<=``/``>=`` the bounds with ``exclusive=True``, and above
    ``maximum`` when one is given) with ``message`` — the shared shape
    of every numeric CLI guard."""

    kind = "an integer" if cast is int else "a number"

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {kind}, got {text!r}"
            )
        below = value <= minimum if exclusive else value < minimum
        above = maximum is not None and (
            value >= maximum if exclusive else value > maximum
        )
        if below or above:
            raise argparse.ArgumentTypeError(f"{message}, got {value}")
        return value

    return parse


_positive_int = _bounded(int, 1, "expected a positive integer")
_nonneg_int = _bounded(int, 0, "expected a nonnegative integer")
_nonneg_float = _bounded(float, 0, "expected a nonnegative number")
#: Worker counts: 0 means in-process, negatives are an error.
_workers_count = _bounded(int, 0, "worker count must be >= 0 (0 = in-process)")
#: CI widths and confidence deltas live strictly inside (0, 1).
_unit_open_float = _bounded(
    float, 0, "expected a number strictly between 0 and 1",
    maximum=1, exclusive=True,
)
#: Probabilities: the closed unit interval.
_unit_float = _bounded(
    float, 0, "expected a probability in [0, 1]", maximum=1,
)


@dataclass(frozen=True)
class Flag:
    """One CLI flag of a spec verb, declared once beside its spec class.

    A typed value lands on the dotted spec field ``path``
    (``engine.chunk_size``); ``type``/``choices``/``metavar``/
    ``action``/``dest``/``help`` go to ``argparse.add_argument``
    unchanged.  ``default`` is the CLI default where it differs from
    the spec field's own — argparse itself always defaults to ``None``,
    so a typed flag stays distinguishable from an untyped one (every
    typed table flag conflicts with ``--spec``).  Rows sharing an
    ``exclusive`` name form one mutually exclusive group.
    """

    flag: str
    path: str
    help: Optional[str] = None
    type: Optional[Callable[[str], Any]] = None
    choices: Optional[Tuple[str, ...]] = None
    metavar: Optional[str] = None
    action: Optional[str] = None
    dest: Optional[str] = None
    default: Any = None
    exclusive: Optional[str] = None

    @property
    def attr(self) -> str:
        """The argparse namespace attribute this flag parses into."""
        return self.dest or self.flag[2:].replace("-", "_")


#: Rows several verbs share (same field path, same help).
_EPSILON_FLAGS = (
    Flag("--epsilon", "epsilon", type=float, help="required accuracy eps"),
    Flag("--epsilon-prime", "epsilon_prime", type=float,
         help="achieved over-provisioned accuracy eps' (< eps)"),
)
_CAPACITY_FLAG = Flag("--capacity", "capacity", type=float,
                      help="transmission capacity C (default: sup phi)")
_BATCH_FLAG = Flag("--batch", "batch", type=_positive_int,
                   help="random probe inputs (default 32)")
_SEED_FLAG = Flag("--seed", "seed", type=int)
_WORKERS_FLAG = Flag("--workers", "engine.workers", type=_workers_count,
                     help="worker processes (0 = in-process)")
_DTYPE_FLAG = Flag("--dtype", "engine.dtype", choices=("float32", "float64"),
                   help="evaluation precision (float32 = fast path)")


# ---------------------------------------------------------------------------
# Network references
# ---------------------------------------------------------------------------

#: Builder recipes a :class:`NetworkRef` can name, with their required
#: and optional parameter keys (mirroring :mod:`repro.network.builder`).
_BUILDERS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "mlp": (
        ("input_dim", "hidden"),
        ("activation", "n_outputs", "init", "use_bias", "output_scale", "seed"),
    ),
    "conv": (
        ("input_dim", "receptive_fields"),
        ("activation", "n_outputs", "init", "use_bias", "seed"),
    ),
    "figure3": (("index", "k"), ("seed", "weight_scale")),
}


@_register("network")
@dataclass(frozen=True)
class NetworkRef(Spec):
    """Where the network comes from: a saved archive or a builder recipe.

    Exactly one of ``path`` (a ``save_network()`` ``.npz`` archive) and
    ``builder`` (a deterministic recipe: ``"mlp"``, ``"conv"`` or
    ``"figure3"``, with ``params`` forwarded to the corresponding
    :mod:`repro.network.builder` function) must be set.  Builder refs
    hash stably — two specs naming the same recipe share cache keys —
    while path refs hash on the path string (the archive's content is
    the caller's responsibility to pin).
    """

    path: Optional[str] = None
    builder: Optional[str] = None
    params: Mapping = field(default_factory=dict)

    def __post_init__(self):
        self._require(
            (self.path is None) != (self.builder is None),
            "NetworkRef needs exactly one of path= or builder=",
        )
        if self.path is not None:
            self._freeze("path", str(self.path))
            self._require(
                not self.params,
                "NetworkRef(path=...) takes no params (they belong to "
                "builder recipes)",
            )
            self._freeze("params", {})
            return
        if self.builder not in _BUILDERS:
            raise SpecError(
                f"unknown builder {self.builder!r}; known: "
                f"{sorted(_BUILDERS)}"
            )
        required, optional = _BUILDERS[self.builder]
        params = {str(k): _jsonify(v) for k, v in dict(self.params).items()}
        missing = [k for k in required if k not in params]
        unknown = sorted(set(params) - set(required) - set(optional))
        self._require(
            not missing,
            f"builder {self.builder!r} params missing {missing}",
        )
        self._require(
            not unknown,
            f"builder {self.builder!r} params has unknown key(s) {unknown}",
        )
        self._freeze("params", params)

    def resolve(self):
        """Load or build the :class:`FeedForwardNetwork` this names."""
        if self.path is not None:
            from ..network.serialization import load_network

            return load_network(self.path)
        from ..network import builder as b

        params = dict(self.params)
        if self.builder == "mlp":
            return b.build_mlp(
                params.pop("input_dim"), params.pop("hidden"), **params
            )
        if self.builder == "conv":
            return b.build_conv_net(
                params.pop("input_dim"),
                params.pop("receptive_fields"),
                **params,
            )
        return b.build_figure3_network(
            params.pop("index"), params.pop("k"), **params
        )


# ---------------------------------------------------------------------------
# Fault models
# ---------------------------------------------------------------------------

#: Spec fault kinds, matching :attr:`repro.faults.types.FaultModel.kind`.
FAULT_KINDS = (
    "crash",
    "byzantine",
    "stuck",
    "offset",
    "noise",
    "intermittent",
    "sign_flip",
    "synapse_crash",
    "synapse_byzantine",
    "synapse_noise",
)

#: Kinds for which ``value`` is meaningful (requested emission /
#: stuck-at level / additive offset).
_VALUE_KINDS = ("byzantine", "stuck", "offset", "synapse_byzantine")


@_register("fault")
@dataclass(frozen=True)
class FaultSpec(Spec):
    """One fault model of the taxonomy (Sections II-B & V, Lemma 2).

    ``value`` is the requested Byzantine emission / synapse offset
    (``None`` = saturate the capacity, the tightness-proof worst case)
    or the stuck-at level / additive offset (``None`` = 1.0, the CLI
    default).  ``sigma`` drives the Gaussian kinds, ``p`` the
    intermittent hit probability, ``inner`` the fault an intermittent
    wrapper applies on a hit (``None`` = crash).
    """

    kind: str = "crash"
    value: Optional[float] = None
    sigma: float = 0.1
    p: float = 0.5
    sign: int = 1
    inner: Optional["FaultSpec"] = None

    def __post_init__(self):
        self._validate_nested()
        self._require(
            self.kind in FAULT_KINDS,
            f"fault kind {self.kind!r} not in taxonomy {FAULT_KINDS}",
        )
        # True == 1 and 1.0 == 1 would compare equal to sign=1 yet hash
        # differently, so the sign is frozen as a plain int.
        self._require(
            isinstance(self.sign, numbers.Integral)
            and not isinstance(self.sign, bool)
            and self.sign in (-1, 1),
            f"sign must be the integer 1 or -1, got {self.sign!r}",
        )
        self._freeze("sign", int(self.sign))
        self._require(self.sigma >= 0, f"sigma must be >= 0, got {self.sigma}")
        self._require(0 <= self.p <= 1, f"p must be in [0,1], got {self.p}")
        if self.value is not None:
            self._freeze("value", float(self.value))
            self._require(
                self.kind in _VALUE_KINDS,
                f"value= is meaningless for fault kind {self.kind!r} "
                f"(only {_VALUE_KINDS} read it)",
            )
        if self.inner is not None:
            self._require(
                self.kind == "intermittent",
                "inner= is only valid for kind='intermittent'",
            )
            self._require(
                not self.inner.is_synapse,
                "intermittent faults wrap neuron faults, got "
                f"{self.inner.kind!r}",
            )

    @property
    def is_synapse(self) -> bool:
        return self.kind.startswith("synapse_")

    def to_fault_model(self):
        """Instantiate the :class:`~repro.faults.types.FaultModel`."""
        from ..faults import types as t

        if self.kind == "crash":
            return t.CrashFault()
        if self.kind == "byzantine":
            return t.ByzantineFault(value=self.value, sign=self.sign)
        if self.kind == "stuck":
            return t.StuckAtFault(
                value=self.value if self.value is not None else 1.0
            )
        if self.kind == "offset":
            return t.OffsetFault(
                offset=self.value if self.value is not None else 1.0
            )
        if self.kind == "noise":
            return t.NoiseFault(sigma=self.sigma)
        if self.kind == "intermittent":
            inner = (
                self.inner.to_fault_model()
                if self.inner is not None
                else t.CrashFault()
            )
            return t.IntermittentFault(p=self.p, fault=inner)
        if self.kind == "sign_flip":
            return t.SignFlipFault()
        if self.kind == "synapse_crash":
            return t.SynapseCrashFault()
        if self.kind == "synapse_byzantine":
            return t.SynapseByzantineFault(offset=self.value, sign=self.sign)
        return t.SynapseNoiseFault(sigma=self.sigma)


FaultSpec._nested = {"inner": FaultSpec}


# ---------------------------------------------------------------------------
# Adaptive stopping
# ---------------------------------------------------------------------------

#: Anytime-valid confidence-sequence families the adaptive sampler can
#: stop on (:mod:`repro.faults.adaptive`).
STOPPING_METHODS = ("hoeffding", "empirical_bernstein")

#: Per-stratum sample allocation rules for the stratified estimator.
ALLOCATION_KINDS = ("proportional", "neyman", "rare")


@_register("stopping")
@dataclass(frozen=True)
class StoppingSpec(Spec):
    """Adaptive-sampling control for campaign and survival runs.

    When present, the run streams scenario blocks through an
    anytime-valid confidence sequence over the violation rate
    (``errors > threshold``) and stops at the first block boundary
    where the two-sided CI width is ``<= target_ci`` — valid at
    confidence ``1 - delta`` simultaneously over every look (union
    bound over block boundaries).  ``method`` picks the Hoeffding or
    empirical-Bernstein half-width; the latter adapts to the observed
    variance and stops far earlier in the rare-event regime.

    ``threshold`` is the violation level; ``None`` defers to the
    campaign's ``threshold`` (campaigns) or the epsilon budget
    ``epsilon - epsilon_prime`` (survival runs).  ``min_scenarios``
    floors the sample count before the first stop decision; the
    campaign's ``n_scenarios`` / ``n_trials`` remains the hard cap, so
    stopping never changes the block layout — an adaptive run is a
    prefix of the fixed-size run.

    ``stratify=True`` switches to the stratified estimator over
    total-fault-count shells (Bernoulli samplers only): shell ``k``
    carries binomial weight ``C(N, k) p^k (1-p)^(N-k)``, shells whose
    every count distribution is Theorem-3 tolerated contribute exactly
    zero without sampling, and ``allocation`` splits the scenario
    budget (``proportional`` to the weights — exactly unbiased;
    ``neyman`` ``∝ w_k * sigma_k`` from a ``pilot`` phase; ``rare``
    uniform over the uncertified shells, the importance-weighted
    rare-event path).
    """

    method: str = "hoeffding"
    target_ci: float = 0.05
    delta: float = 0.05
    threshold: Optional[float] = None
    min_scenarios: int = 1024
    stratify: bool = False
    allocation: str = "proportional"
    pilot: int = 256

    def __post_init__(self):
        self._require(
            self.method in STOPPING_METHODS,
            f"stopping method must be one of {STOPPING_METHODS}, got "
            f"{self.method!r}",
        )
        self._require(
            0 < self.target_ci < 1,
            f"target_ci is a CI width in (0,1), got {self.target_ci}",
        )
        self._require(
            0 < self.delta < 1,
            f"delta must be in (0,1), got {self.delta}",
        )
        if self.threshold is not None:
            self._freeze("threshold", float(self.threshold))
            self._require(
                self.threshold >= 0,
                f"threshold must be >= 0, got {self.threshold}",
            )
        self._require_int("min_scenarios", 1)
        self._require_int("pilot", 2)  # a variance needs two draws
        self._require(
            self.allocation in ALLOCATION_KINDS,
            f"allocation must be one of {ALLOCATION_KINDS}, got "
            f"{self.allocation!r}",
        )
        self._require(
            self.stratify or self.allocation == "proportional",
            "allocation= only applies to the stratified estimator "
            "(stratify=True)",
        )


#: Adaptive-sampling rows, shared by the campaign and survival verbs.
_STOPPING_FLAGS = (
    Flag("--target-ci", "stopping.target_ci", type=_unit_open_float,
         metavar="W",
         help="adaptive early stop: halt at the first chunk boundary "
              "where the anytime-valid CI on the violation rate is "
              "narrower than W (strictly between 0 and 1)"),
    Flag("--delta", "stopping.delta", type=_unit_open_float, metavar="D",
         help="confidence budget of the adaptive CI, strictly between "
              "0 and 1 (default 0.05: the interval holds with "
              "probability >= 0.95 over all looks)"),
    Flag("--stopping-method", "stopping.method", choices=STOPPING_METHODS,
         help="confidence-sequence family (default hoeffding; "
              "empirical_bernstein adapts to the observed variance — "
              "the rare-event choice)"),
    Flag("--min-scenarios", "stopping.min_scenarios", type=_positive_int,
         metavar="N",
         help="scenarios to draw before the first stop decision "
              "(default 1024)"),
    Flag("--stratify", "stopping.stratify", action="store_true",
         help="stratified estimator over total-fault-count shells "
              "(Theorem-3-certified shells skipped) instead of the "
              "confidence sequence; needs Bernoulli sampling and a "
              "neuron fault"),
    Flag("--allocation", "stopping.allocation", choices=ALLOCATION_KINDS,
         help="stratified budget split (default proportional = exactly "
              "unbiased; neyman pilots each shell; rare spreads "
              "uniformly over uncertified shells — the "
              "importance-weighted rare-event path; implies --stratify)"),
)


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

SAMPLER_KINDS = ("fixed", "bernoulli", "exhaustive", "mixed")


@_register("sampler")
@dataclass(frozen=True)
class SamplerSpec(Spec):
    """How scenarios are drawn (the mask-sampler family of DESIGN.md).

    * ``fixed`` — exactly ``distribution[l]`` failures per layer
      (per-*stage* synapse counts, length ``L + 1``, for synapse
      faults) — Figure 3's workload;
    * ``bernoulli`` — every component fails independently with
      ``p_fail`` — Section V-A's survival workload;
    * ``exhaustive`` — every configuration of exactly ``n_fail``
      crashes (crash-only by definition);
    * ``mixed`` — a heterogeneous population: each ``components`` entry
      is a ``fixed``/``bernoulli`` spec carrying its *own* ``fault``,
      merged with later-wins collisions.
    """

    kind: str = "fixed"
    distribution: Optional[Tuple[int, ...]] = None
    p_fail: Optional[float] = None
    n_fail: Optional[int] = None
    fault: Optional[FaultSpec] = None
    components: Tuple["SamplerSpec", ...] = ()
    stopping: Optional[StoppingSpec] = None

    def __post_init__(self):
        self._validate_nested()
        if self.stopping is not None:
            self._require(
                self.kind in ("fixed", "bernoulli"),
                "stopping= rides on sampled scenario streams "
                f"(fixed/bernoulli), not {self.kind!r}",
            )
            self._require(
                not self.stopping.stratify or self.kind == "bernoulli",
                "the stratified estimator needs the i.i.d. regime "
                "(kind='bernoulli') for its binomial shell weights",
            )
        self._require(
            self.kind in SAMPLER_KINDS,
            f"sampler kind {self.kind!r} not in {SAMPLER_KINDS}",
        )
        if self.distribution is not None:
            self._freeze("distribution", tuple(
                self._as_int(f, 0, f"distribution[{i}]")
                for i, f in enumerate(self.distribution)
            ))
        self._require_int("n_fail", 0)
        if self.components:
            self._freeze("components", tuple(self.components))
        if self.kind == "fixed":
            self._require(
                self.distribution is not None,
                "fixed sampler needs distribution=(f_1, ..., f_L)",
            )
            self._require(
                self.p_fail is None and self.n_fail is None,
                "fixed sampler reads only distribution=",
            )
        elif self.kind == "bernoulli":
            self._require(
                self.p_fail is not None and 0 <= self.p_fail <= 1,
                f"bernoulli sampler needs p_fail in [0,1], got {self.p_fail}",
            )
            self._require(
                self.distribution is None and self.n_fail is None,
                "bernoulli sampler reads only p_fail=",
            )
        elif self.kind == "exhaustive":
            self._require(
                self.n_fail is not None, "exhaustive sampler needs n_fail="
            )
            self._require(
                self.distribution is None and self.p_fail is None,
                "exhaustive sampler reads only n_fail=",
            )
            self._require(
                self.fault is None,
                "the exhaustive sweep is crash-only by definition",
            )
        if self.kind == "mixed":
            self._require(
                len(self.components) > 0,
                "mixed sampler needs at least one component",
            )
            for comp in self.components:
                self._require(
                    comp.kind in ("fixed", "bernoulli"),
                    f"mixed components must be fixed/bernoulli, got "
                    f"{comp.kind!r}",
                )
                self._require(
                    comp.fault is not None,
                    "every mixed component carries its own fault=",
                )
                self._require(
                    comp.stopping is None,
                    "stopping= belongs to the top-level sampler (or the "
                    "campaign), not to mixed components",
                )
        else:
            self._require(
                not self.components,
                f"components= is only valid for kind='mixed', not "
                f"{self.kind!r}",
            )


SamplerSpec._nested = {"fault": FaultSpec, "stopping": StoppingSpec}
SamplerSpec._nested_tuples = {"components": SamplerSpec}
SamplerSpec._omit_if_none = ("stopping",)


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

#: Evaluation backends a campaign can run on.  ``numpy`` is the
#: reference engine; ``quantized-int8`` / ``float16`` are the reduced-
#: precision probe tiers of :mod:`repro.backends.quantized`, which run
#: in-process.
ENGINE_BACKENDS = ("numpy", "quantized-int8", "float16")


@_register("engine")
@dataclass(frozen=True)
class EngineSpec(Spec):
    """Mask-engine evaluation parameters shared by every workload.

    ``chunk_size`` is the slice size of a stochastic batch (its draws
    are made slice by slice) and the upper bound of a deterministic
    batch's tile (at most ``TILE_BYTES`` = 2 MiB per layer buffer; see
    :class:`~repro.faults.masks.MaskCampaignEngine`).
    ``chunk_size=None`` takes the subsystem default (1024 scenario rows
    for static campaigns; ``max(epochs_chunk * REPLICA_BLOCK, 1024)``
    for chaos windows, so one engine call covers as many replica
    blocks' windows as fit).  ``dtype='float32'`` selects the fast
    evaluation path;
    ``workers > 1`` fans chunks/blocks over the fork-once pool.
    ``backend`` picks the evaluation engine from
    :data:`ENGINE_BACKENDS` (stored specs predating the field load as
    ``"numpy"``, the reference engine); the quantized tiers run
    in-process, so ``repro.run`` rejects them with ``workers > 1``.
    """

    chunk_size: Optional[int] = None
    dtype: str = "float64"
    workers: int = 0
    reduction: str = "max"
    backend: str = "numpy"

    def __post_init__(self):
        self._require(
            self.dtype in ("float32", "float64"),
            f"dtype must be float32/float64, got {self.dtype!r}",
        )
        self._require(
            self.backend in ENGINE_BACKENDS,
            f"backend must be one of {ENGINE_BACKENDS}, got {self.backend!r}",
        )
        self._require_int("chunk_size", 1)
        self._require_int("workers", 0)  # 0 = in-process
        self._require(
            self.reduction in ("max", "mean"),
            f"reduction must be max/mean, got {self.reduction!r}",
        )


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


@_register("obs")
@dataclass(frozen=True)
class ObsSpec(Spec):
    """Run observability (span trace + metrics) for any runnable spec.

    Nested (optionally) inside :class:`CampaignSpec`,
    :class:`SurvivalSpec` and :class:`ChaosSpec`; its absence means no
    observation, which is also the pre-observability payload shape —
    old spec payloads lower and hash unchanged.

    ``enabled`` switches the whole subsystem; ``events`` keeps or
    drops point events (adaptive-stopping looks, artifact-cache
    hits/misses) within the span trace; ``record`` names a path where
    ``repro.run`` persists the finished run record
    (:func:`~repro.obs.save_run_record` — the file the ``repro obs``
    command renders).  Observation draws no randomness: results are
    bitwise identical with it on or off.
    """

    enabled: bool = True
    events: bool = True
    record: Optional[str] = None

    def __post_init__(self):
        if self.record is not None:
            self._require(
                bool(str(self.record).strip()),
                "record must be a non-empty path (or null)",
            )


# ---------------------------------------------------------------------------
# Static campaigns
# ---------------------------------------------------------------------------


@_register("campaign")
@dataclass(frozen=True)
class CampaignSpec(Spec):
    """A static fault-injection campaign (the ``campaign`` CLI verb).

    ``seed`` drives both the scenario stream and — unless
    ``probe_seed`` overrides it — the random probe batch of ``batch``
    inputs.  ``capacity=None`` defaults to ``sup phi`` at lowering.
    ``threshold`` optionally asks the report for the fraction of
    scenarios exceeding that error (the empirical guarantee-break
    probability).  ``stopping`` turns the campaign adaptive
    (:class:`StoppingSpec`; ``n_scenarios`` becomes the hard cap) —
    it overrides a ``stopping`` nested in the sampler.  ``obs``
    (optional, :class:`ObsSpec`) observes the run; omitted, the
    payload is byte-identical to pre-observability specs.
    """

    network: NetworkRef
    sampler: SamplerSpec
    fault: FaultSpec = FaultSpec()
    n_scenarios: int = 10_000
    batch: int = 32
    seed: int = 0
    probe_seed: Optional[int] = None
    capacity: Optional[float] = None
    threshold: Optional[float] = None
    engine: EngineSpec = EngineSpec()
    stopping: Optional[StoppingSpec] = None
    obs: Optional[ObsSpec] = None

    def __post_init__(self):
        self._validate_nested()
        for name in ("n_scenarios", "batch"):
            self._require_int(name, 1)
        for name in ("seed", "probe_seed"):
            self._require_int(name, 0)
        if self.sampler.kind == "exhaustive":
            self._require(
                self.fault.kind == "crash" and self.fault.value is None,
                "the exhaustive sweep enumerates crash configurations; "
                f"fault {self.fault.kind!r} only applies to sampled "
                "campaigns",
            )
        stopping = self.effective_stopping
        if stopping is not None:
            self._require(
                self.sampler.kind in ("fixed", "bernoulli"),
                "adaptive stopping rides on sampled scenario streams "
                f"(fixed/bernoulli), not {self.sampler.kind!r}",
            )
            self._require(
                stopping.threshold is not None or self.threshold is not None,
                "an adaptive campaign needs a violation threshold: set "
                "stopping.threshold or the campaign threshold",
            )
            if stopping.stratify:
                self._require(
                    self.sampler.kind == "bernoulli",
                    "the stratified estimator needs the i.i.d. regime "
                    "(sampler kind='bernoulli') for its binomial shell "
                    "weights",
                )
                fault = (
                    self.sampler.fault
                    if self.sampler.fault is not None
                    else self.fault
                )
                self._require(
                    not fault.is_synapse,
                    "the stratified shells are neuron-count shells "
                    "(Theorem 3 certifies neuron counts); synapse faults "
                    "run the unstratified confidence sequence",
                )

    @property
    def effective_stopping(self) -> Optional[StoppingSpec]:
        """The stopping rule this campaign runs under: the campaign's
        own ``stopping``, else the sampler's, else ``None``."""
        if self.stopping is not None:
            return self.stopping
        return self.sampler.stopping


CampaignSpec._nested = {
    "network": NetworkRef,
    "sampler": SamplerSpec,
    "fault": FaultSpec,
    "engine": EngineSpec,
    "stopping": StoppingSpec,
    "obs": ObsSpec,
}
CampaignSpec._omit_if_none = ("stopping", "obs")
CampaignSpec.cli_flags = (
    Flag("--distribution", "sampler.distribution", metavar="f1,f2,...",
         exclusive="sampler",
         help="per-layer failure counts for a Monte-Carlo campaign"),
    Flag("--exhaustive", "sampler.n_fail", type=int, metavar="N_FAIL",
         exclusive="sampler",
         help="evaluate every configuration of exactly N_FAIL crashes"),
    Flag("--p-fail", "sampler.p_fail", type=_unit_float, metavar="P",
         exclusive="sampler",
         help="Bernoulli campaign: fail every component independently "
              "with probability P (the survival workload's sampler; "
              "required for --stratify)"),
    Flag("--n-scenarios", "n_scenarios", type=_positive_int,
         help="Monte-Carlo sample count (default 10000; Monte-Carlo "
              "only)"),
    Flag("--fault", "fault.kind",
         choices=tuple(kind.replace("_", "-") for kind in FAULT_KINDS),
         help="fault model (default crash; Monte-Carlo only — the "
              "exhaustive sweep is crash by definition). synapse-* "
              "faults read --distribution as per-stage synapse counts "
              "(length L+1)"),
    Flag("--value", "fault.value", type=float,
         help="fault magnitude: stuck-at value / additive offset "
              "(default 1.0), or the requested Byzantine emission / "
              "synapse offset (default: saturate the capacity)"),
    Flag("--sigma", "fault.sigma", type=float,
         help="noise std-dev for --fault noise / synapse-noise "
              "(default 0.1)"),
    Flag("--p-transient", "fault.p", type=float,
         help="per-evaluation hit probability for --fault intermittent "
              "(default 0.5)"),
    _CAPACITY_FLAG,
    _BATCH_FLAG,
    _SEED_FLAG,
    Flag("--chunk-size", "engine.chunk_size", type=_positive_int,
         default=1024),
    _WORKERS_FLAG,
    _DTYPE_FLAG,
    Flag("--backend", "engine.backend", choices=ENGINE_BACKENDS,
         help="evaluation engine backend: numpy (reference) or a "
              "reduced-precision probe tier (quantized-int8 / float16, "
              "in-process only)"),
    Flag("--threshold", "threshold", type=float,
         help="also report the fraction of scenarios exceeding this "
              "error (the violation level for adaptive stopping)"),
) + _STOPPING_FLAGS


# ---------------------------------------------------------------------------
# Survival
# ---------------------------------------------------------------------------


@_register("survival")
@dataclass(frozen=True)
class SurvivalSpec(Spec):
    """A survival-probability study under i.i.d. component failures.

    ``method='certified'`` evaluates the exact Theorem-3 lower bound
    (:func:`~repro.faults.reliability.certified_survival_probability`,
    the ``survival`` CLI verb); ``method='monte_carlo'`` estimates the
    actual survival by injection
    (:func:`~repro.faults.reliability.monte_carlo_survival`), with
    ``fault`` selecting the failure model and ``n_trials``/``batch``/
    ``seed`` the experiment size.
    """

    network: NetworkRef
    p_fail: float
    epsilon: float
    epsilon_prime: float
    mode: str = "crash"
    capacity: Optional[float] = None
    method: str = "certified"
    fault: Optional[FaultSpec] = None
    n_trials: int = 500
    batch: int = 32
    seed: int = 0
    probe_seed: Optional[int] = None
    stopping: Optional[StoppingSpec] = None
    obs: Optional[ObsSpec] = None

    def __post_init__(self):
        if self.stopping is not None:
            self._require(
                self.method == "monte_carlo",
                "stopping= only applies to method='monte_carlo' (the "
                "certified bound is exact, nothing to stop early)",
            )
        self._validate_nested()
        self._require(
            0 <= self.p_fail <= 1, f"p_fail must be in [0,1], got {self.p_fail}"
        )
        self._require(
            0 < self.epsilon_prime <= self.epsilon,
            "need 0 < epsilon_prime <= epsilon, got "
            f"epsilon={self.epsilon}, epsilon_prime={self.epsilon_prime}",
        )
        self._require(
            self.mode in ("crash", "byzantine"),
            f"mode must be crash/byzantine, got {self.mode!r}",
        )
        self._require(
            self.method in ("certified", "monte_carlo"),
            f"method must be certified/monte_carlo, got {self.method!r}",
        )
        if self.method == "certified":
            self._require(
                self.fault is None,
                "fault= only applies to method='monte_carlo' (the "
                "certified bound is placement- and behaviour-free)",
            )
        for name in ("n_trials", "batch"):
            self._require_int(name, 1)
        for name in ("seed", "probe_seed"):
            self._require_int(name, 0)
        if self.stopping is not None and self.stopping.stratify:
            self._require(
                self.fault is None or not self.fault.is_synapse,
                "the stratified shells are neuron-count shells (Theorem "
                "3 certifies neuron counts); synapse faults run the "
                "unstratified confidence sequence",
            )


SurvivalSpec._nested = {
    "network": NetworkRef,
    "fault": FaultSpec,
    "stopping": StoppingSpec,
    "obs": ObsSpec,
}
SurvivalSpec._omit_if_none = ("stopping", "obs")
SurvivalSpec.cli_flags = _EPSILON_FLAGS + (
    Flag("--p-fail", "p_fail", type=float,
         help="per-neuron failure probability"),
    Flag("--mode", "mode", choices=("crash", "byzantine")),
    _CAPACITY_FLAG,
    Flag("--method", "method", choices=("certified", "monte_carlo"),
         help="certified Theorem-3 lower bound (default) or Monte-Carlo "
              "injection estimate; any adaptive flag implies monte_carlo"),
    Flag("--n-trials", "n_trials", type=_positive_int, metavar="N",
         help="Monte-Carlo trial count — the hard cap when an adaptive "
              "stop is set (default 500)"),
) + _STOPPING_FLAGS


# ---------------------------------------------------------------------------
# Chaos: processes, detectors, policies, traffic
# ---------------------------------------------------------------------------

PROCESS_KINDS = ("lifetime", "poisson", "bursts", "blasts")


@_register("process")
@dataclass(frozen=True)
class ProcessSpec(Spec):
    """One fault arrival/lifetime process of the chaos subsystem.

    ``lifetime`` with ``shape=1`` is the exponential mission model
    (``shape > 1`` Weibull wear-out — the CLI's ``weibull`` sugar),
    ``poisson`` memoryless per-layer arrivals, ``bursts`` transient
    soft-error storms (gate_p channel), ``blasts`` correlated layer
    losses.  ``fraction=None`` takes the process default (0.2 for
    bursts, 0.5 for blasts).
    """

    kind: str = "lifetime"
    rate: float = 0.02
    shape: float = 1.0
    dt: float = 1.0
    duration: int = 3
    fraction: Optional[float] = None
    hit_p: float = 0.5

    def __post_init__(self):
        self._require(
            self.kind in PROCESS_KINDS,
            f"process kind {self.kind!r} not in {PROCESS_KINDS}",
        )
        self._require(self.rate >= 0, f"rate must be >= 0, got {self.rate}")
        if self.kind in ("bursts", "blasts"):
            self._require(
                self.rate <= 1,
                f"{self.kind} rate is a per-epoch probability, got "
                f"{self.rate}",
            )
        self._require(self.shape > 0, f"shape must be > 0, got {self.shape}")
        self._require(self.dt > 0, f"dt must be > 0, got {self.dt}")
        self._require_int("duration", 1)
        if self.fraction is not None:
            self._require(
                0 < self.fraction <= 1,
                f"fraction must be in (0,1], got {self.fraction}",
            )
        self._require(
            0 <= self.hit_p <= 1, f"hit_p must be in [0,1], got {self.hit_p}"
        )

    def build(self):
        """Instantiate the :class:`~repro.chaos.processes.FaultProcess`."""
        from ..chaos import processes as p

        if self.kind == "lifetime":
            return p.ComponentLifetimeProcess(
                self.rate, shape=self.shape, dt=self.dt
            )
        if self.kind == "poisson":
            return p.PoissonArrivalProcess(self.rate)
        if self.kind == "bursts":
            return p.TransientBurstProcess(
                self.rate,
                duration=self.duration,
                fraction=self.fraction if self.fraction is not None else 0.2,
                hit_p=self.hit_p,
            )
        return p.CorrelatedBlastProcess(
            self.rate,
            fraction=self.fraction if self.fraction is not None else 0.5,
        )


DETECTOR_KINDS = ("threshold", "cusum", "certified")


@_register("detector")
@dataclass(frozen=True)
class DetectorSpec(Spec):
    """One error-drift detector watching the fleet.

    ``threshold=None`` resolves to the epsilon budget at lowering
    (``2 x budget`` for CUSUM, whose ``drift`` defaults to
    ``budget / 2``).  The ``certified`` kind is the Theorem-3
    preventive alarm: ``failure_rate=None`` borrows the first
    process's rate.
    """

    kind: str = "threshold"
    threshold: Optional[float] = None
    drift: Optional[float] = None
    failure_rate: Optional[float] = None
    p_threshold: float = 0.9
    dt: float = 1.0
    mode: str = "crash"

    def __post_init__(self):
        self._require(
            self.kind in DETECTOR_KINDS,
            f"detector kind {self.kind!r} not in {DETECTOR_KINDS}",
        )
        if self.threshold is not None:
            self._require(
                self.threshold >= 0,
                f"threshold must be >= 0, got {self.threshold}",
            )
        if self.drift is not None:
            self._require(
                self.drift >= 0, f"drift must be >= 0, got {self.drift}"
            )
        if self.failure_rate is not None:
            self._require(
                self.failure_rate >= 0,
                f"failure_rate must be >= 0, got {self.failure_rate}",
            )
        self._require(
            0 < self.p_threshold <= 1,
            f"p_threshold must be in (0,1], got {self.p_threshold}",
        )
        self._require(self.dt > 0, f"dt must be > 0, got {self.dt}")
        self._require(
            self.mode in ("crash", "byzantine"),
            f"mode must be crash/byzantine, got {self.mode!r}",
        )


POLICY_KINDS = ("none", "rejuvenate", "repair", "spare")


@_register("policy")
@dataclass(frozen=True)
class PolicySpec(Spec):
    """How the fleet heals (Section V's deployment stories).

    ``rejuvenate`` restarts every ``period`` epochs in boosted mode
    (``tolerated=None`` derives the straggler budget from the
    certificate via ``greedy_max_total_failures``); ``repair`` is
    detector-triggered with ``latency``/``downtime``; ``spare`` swaps
    in ``spares`` warm spares per replica block after ``swap_latency``
    epochs.  ``detector`` names the triggering detector kind
    (``None`` = any firing).
    """

    kind: str = "none"
    period: int = 10
    tolerated: Optional[Tuple[int, ...]] = None
    straggler_fraction: float = 0.1
    straggler_scale: float = 10.0
    latency: int = 2
    downtime: int = 1
    spares: int = 4
    swap_latency: int = 1
    detector: Optional[str] = None

    def __post_init__(self):
        self._require(
            self.kind in POLICY_KINDS,
            f"policy kind {self.kind!r} not in {POLICY_KINDS}",
        )
        self._require_int("period", 1)
        if self.tolerated is not None:
            self._freeze("tolerated", tuple(int(f) for f in self.tolerated))
            self._require(
                all(f >= 0 for f in self.tolerated),
                f"tolerated counts must be >= 0, got {self.tolerated}",
            )
        self._require(
            0 <= self.straggler_fraction <= 1,
            f"straggler_fraction must be in [0,1], got "
            f"{self.straggler_fraction}",
        )
        self._require(
            self.straggler_scale > 0,
            f"straggler_scale must be > 0, got {self.straggler_scale}",
        )
        for name in ("latency", "downtime", "spares", "swap_latency"):
            self._require_int(name, 0)
        if self.detector is not None:
            self._require(
                self.kind in ("repair", "spare"),
                "detector= only applies to the closed-loop policies "
                "(repair/spare)",
            )


TRAFFIC_KINDS = ("constant", "diurnal", "bursty")


@_register("traffic")
@dataclass(frozen=True)
class TrafficSpec(Spec):
    """The request stream weighting the SLO statistics."""

    kind: str = "constant"
    rate: float = 1000.0
    amplitude: float = 0.5
    period: int = 24
    alpha: float = 2.5
    modulate_probes: bool = False

    def __post_init__(self):
        self._require(
            self.kind in TRAFFIC_KINDS,
            f"traffic kind {self.kind!r} not in {TRAFFIC_KINDS}",
        )
        self._require(self.rate >= 0, f"rate must be >= 0, got {self.rate}")
        self._require(
            0 <= self.amplitude <= 1,
            f"amplitude must be in [0,1], got {self.amplitude}",
        )
        self._require_int("period", 1)
        self._require(
            self.alpha > 1, f"alpha must be > 1 (finite mean), got {self.alpha}"
        )

    def build(self):
        """Instantiate the :class:`~repro.chaos.traffic.TrafficModel`."""
        from ..chaos import traffic as t

        if self.kind == "constant":
            return t.ConstantTraffic(self.rate)
        if self.kind == "diurnal":
            return t.DiurnalTraffic(
                self.rate,
                amplitude=self.amplitude,
                period=self.period,
                modulate_probes=self.modulate_probes,
            )
        return t.ParetoBurstyTraffic(
            self.rate, alpha=self.alpha, modulate_probes=self.modulate_probes
        )


@_register("telemetry")
@dataclass(frozen=True)
class TelemetrySpec(Spec):
    """Telemetry capture and retention for a chaos campaign.

    Nested (optionally) inside :class:`ChaosSpec`; its absence means
    the campaign records only what the report needs and persists
    nothing, which is also the pre-telemetry payload shape — old spec
    payloads lower and hash unchanged.

    ``enabled`` turns trace capture on; ``ground_truth`` additionally
    records the fault-label channels (per-layer crash/transient
    counts, per-process damage attribution) that the AIOps scoring
    tasks need.  Retention trims what :meth:`~repro.chaos.telemetry.
    TelemetryTrace.retained` persists: ``retain_errors=False`` drops
    the dense float error grid (disabling replay of the stored copy),
    ``retain_epochs=N`` keeps only the first ``N`` epochs.
    """

    enabled: bool = True
    ground_truth: bool = True
    retain_errors: bool = True
    retain_epochs: Optional[int] = None

    def __post_init__(self):
        self._require_int("retain_epochs", 1)


@_register("chaos")
@dataclass(frozen=True)
class ChaosSpec(Spec):
    """A temporal chaos campaign over a deployed replica fleet.

    The spec form of :func:`repro.chaos.campaign._run_chaos_campaign`:
    fault ``processes`` degrade ``replicas`` replicas over ``epochs``
    epochs while ``detectors`` watch the error series, ``policy`` heals, and
    ``traffic`` weights the SLO report.  ``seed`` drives the whole
    fault/traffic schedule; ``probe_seed`` (default: ``seed``) draws
    the ``batch`` random probe inputs.  ``telemetry`` (optional)
    captures the campaign's :class:`~repro.chaos.telemetry.
    TelemetryTrace` for replay and AIOps scoring; omitted, the
    payload is byte-identical to pre-telemetry specs.
    """

    network: NetworkRef
    epsilon: float
    epsilon_prime: float
    processes: Tuple[ProcessSpec, ...] = (ProcessSpec(),)
    detectors: Tuple[DetectorSpec, ...] = (DetectorSpec(),)
    policy: PolicySpec = PolicySpec()
    traffic: TrafficSpec = TrafficSpec()
    epochs: int = 50
    replicas: int = 32
    batch: int = 32
    seed: int = 0
    probe_seed: Optional[int] = None
    epochs_chunk: int = 32
    capacity: Optional[float] = None
    keep_errors: bool = False
    engine: EngineSpec = EngineSpec()
    telemetry: Optional[TelemetrySpec] = None
    obs: Optional[ObsSpec] = None

    def __post_init__(self):
        self._validate_nested()
        self._require(
            0 < self.epsilon_prime <= self.epsilon,
            "need 0 < epsilon_prime <= epsilon, got "
            f"epsilon={self.epsilon}, epsilon_prime={self.epsilon_prime}",
        )
        self._freeze("processes", tuple(self.processes))
        self._freeze("detectors", tuple(self.detectors))
        self._require(
            len(self.processes) > 0, "need at least one fault process"
        )
        kinds = [d.kind for d in self.detectors]
        self._require(
            len(set(kinds)) == len(kinds),
            f"detector kinds must be unique, got {kinds}",
        )
        for name in ("epochs", "replicas", "batch", "epochs_chunk"):
            self._require_int(name, 1)
        for name in ("seed", "probe_seed"):
            self._require_int(name, 0)
        if self.policy.detector is not None:
            self._require(
                self.policy.detector in kinds,
                f"policy triggers on detector {self.policy.detector!r}, "
                f"but the spec runs {kinds or 'no detectors'}",
            )
        if self.policy.kind in ("repair", "spare"):
            self._require(
                len(self.detectors) > 0,
                f"closed-loop policy {self.policy.kind!r} needs at least "
                "one detector to trigger on",
            )


ChaosSpec._nested = {
    "network": NetworkRef,
    "policy": PolicySpec,
    "traffic": TrafficSpec,
    "engine": EngineSpec,
    "telemetry": TelemetrySpec,
    "obs": ObsSpec,
}
ChaosSpec._nested_tuples = {
    "processes": ProcessSpec,
    "detectors": DetectorSpec,
}
ChaosSpec._omit_if_none = ("telemetry", "obs")
ChaosSpec.cli_flags = _EPSILON_FLAGS + (
    Flag("--process", "processes.kind", action="append", dest="processes",
         choices=("lifetime", "weibull") + PROCESS_KINDS[1:],
         help="fault process (repeatable; default: lifetime — exponential "
              "component lifetimes at --rate; weibull = lifetime with "
              "--weibull-shape)"),
    Flag("--rate", "processes.rate", type=_nonneg_float,
         help="per-epoch fault rate: component hazard (lifetime/weibull), "
              "arrivals per layer (poisson), or event probability "
              "(bursts/blasts, at most 1) (default 0.02)"),
    Flag("--weibull-shape", "processes.shape", type=_nonneg_float,
         default=2.0,
         help="Weibull shape for --process weibull (> 0; default 2.0, "
              "wear-out)"),
    Flag("--epochs", "epochs", type=_positive_int,
         help="mission length in epochs (default 50)"),
    Flag("--replicas", "replicas", type=_positive_int,
         help="fleet size (default 32)"),
    Flag("--policy", "policy.kind", choices=POLICY_KINDS,
         help="repair policy (default none; rejuvenate = periodic boosted "
              "restarts, repair = detector-triggered with latency, spare "
              "= warm-spare activation)"),
    Flag("--period", "policy.period", type=_positive_int,
         help="rejuvenation period in epochs (default 10)"),
    Flag("--latency", "policy.latency", type=_nonneg_int,
         help="repair latency in epochs for --policy repair (default 2)"),
    Flag("--spares", "policy.spares", type=_nonneg_int,
         help="warm spares per 16-replica block for --policy spare "
              "(zone-local pools; default 4)"),
    Flag("--detector", "detectors.kind", action="append", dest="detectors",
         choices=DETECTOR_KINDS,
         help="error-drift detector (repeatable; default: threshold at "
              "the epsilon budget)"),
    Flag("--traffic", "traffic.kind", choices=TRAFFIC_KINDS,
         help="request-stream model weighting the SLO statistics "
              "(default constant)"),
    _BATCH_FLAG,
    _SEED_FLAG,
    Flag("--epochs-chunk", "epochs_chunk", type=_positive_int,
         help="epochs per streamed engine evaluation (detection "
              "granularity; default 32)"),
    _WORKERS_FLAG,
    _DTYPE_FLAG,
    _CAPACITY_FLAG,
)


@_register("service")
@dataclass(frozen=True)
class ServiceSpec(Spec):
    """The resident campaign service: endpoint + admission control.

    Configures :class:`repro.service.CampaignService` — the asyncio
    daemon behind ``repro serve``.  Exactly one endpoint: a filesystem
    ``socket`` path (the default transport) *or* a loopback ``host`` +
    ``port`` pair.  ``max_inflight`` bounds the worker pool running
    engine evaluations off the event loop, ``queue_depth`` bounds the
    admission queue (a full queue sheds with a typed REJECTED), and
    ``job_timeout`` (seconds, optional) turns stuck evaluations into
    typed TIMEOUT responses instead of hung sockets.  ``results_dir``
    (optional) roots an :class:`~repro.artifacts.ArtifactStore` whose
    spec-hash-keyed run cache answers repeats without re-evaluation;
    ``cache_entries`` bounds the in-memory result cache.  Optional
    fields ride ``_omit_if_none``, so pre-service payloads stay
    byte-identical.
    """

    socket: Optional[str] = None
    host: Optional[str] = None
    port: Optional[int] = None
    max_inflight: int = 2
    queue_depth: int = 64
    job_timeout: Optional[float] = None
    results_dir: Optional[str] = None
    cache_entries: int = 256

    def __post_init__(self):
        self._validate_nested()
        if self.socket is not None:
            self._require(
                self.host is None and self.port is None,
                "socket and host/port endpoints are mutually exclusive",
            )
            self._require(
                isinstance(self.socket, str) and len(self.socket) > 0,
                f"socket must be a non-empty path, got {self.socket!r}",
            )
        if (self.host is None) != (self.port is None):
            raise SpecError(
                "host and port must be set together, got "
                f"host={self.host!r}, port={self.port!r}"
            )
        if self.port is not None:
            self._require_int("port", 1)
            self._require(
                self.port <= 65535,
                f"port must be in 1..65535, got {self.port}",
            )
            self._require(
                self.host in ("127.0.0.1", "localhost", "::1"),
                f"host must be a loopback address, got {self.host!r}",
            )
        self._require_int("max_inflight", 1)
        self._require_int("queue_depth", 0)
        if self.job_timeout is not None:
            self._require(
                self.job_timeout > 0,
                f"job_timeout must be > 0, got {self.job_timeout}",
            )
        self._require_int("cache_entries", 0)


ServiceSpec._omit_if_none = (
    "socket",
    "host",
    "port",
    "job_timeout",
    "results_dir",
)
ServiceSpec.cli_flags = (
    Flag("--socket", "socket", metavar="PATH",
         help="unix socket path (default: repro-service.sock)"),
    Flag("--host", "host",
         help="loopback TCP host (with --port; default 127.0.0.1)"),
    Flag("--port", "port", type=_positive_int,
         help="loopback TCP port (instead of --socket)"),
    Flag("--max-inflight", "max_inflight", type=_positive_int,
         help="engine evaluations running concurrently (default 2)"),
    Flag("--queue-depth", "queue_depth", type=_nonneg_int,
         help="admitted jobs waiting for a runner before shedding "
              "(default 64; 0 = unbounded)"),
    Flag("--job-timeout", "job_timeout",
         type=_bounded(float, 0, "job timeout must be > 0", exclusive=True),
         metavar="SECONDS",
         help="per-job evaluation timeout (default: none)"),
    Flag("--results-dir", "results_dir", metavar="DIR",
         help="ArtifactStore root for the spec-hash result cache"),
    Flag("--cache-entries", "cache_entries", type=_nonneg_int,
         help="in-memory result-cache entries (default 256; 0 disables)"),
)
