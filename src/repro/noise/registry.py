"""String-spec noise registry: ``create_noise("tainted(level=0.05, p=0.1)")``.

The noise counterpart of :mod:`repro.modeling.registry`: one construction
seam for every :class:`~repro.noise.injection.NoiseModel`, shared by the
CLI (``--noise``) and the degradation sweep. The grammar is the same --
``name`` or ``name(key=value, ...)``, keyword-only, Python-literal values,
bare words for strings/booleans -- with one extension: a value may itself be a noise spec (a nested call), so wrappers
like ``systematic(inner=gamma(shape=2.0, scale=0.13), scale=0.1)`` parse
into composed models.

Every model is registered both under a short sweep name (``uniform``,
``tainted``, ``drift``, ...) and under its class name, and all noise reprs
use keyword form -- so ``repr(model)`` is always a valid spec and
``create_noise(repr(model))`` round-trips.

Entries carry an ``axis`` attribute naming the keyword that a degradation
sweep binds its per-cell value to (``level`` for uniform noise, ``p`` for
contamination, ``drift`` for drift, ...); :func:`noise_for_level` is the
binding helper the sweep driver uses.
"""

from __future__ import annotations

import ast
import inspect
from dataclasses import dataclass
from typing import Callable

from repro.noise.injection import (
    DriftNoise,
    GammaLevelNoise,
    GaussianNoise,
    HeteroscedasticNoise,
    LognormalSpikeNoise,
    NoiseModel,
    NoNoise,
    SystematicErrorNoise,
    TaintedRepetitionNoise,
    UniformLevelRangeNoise,
    UniformNoise,
)
from repro.modeling.registry import _BARE_WORDS, _SPEC_RE

_REGISTRY: "dict[str, RegisteredNoise]" = {}


@dataclass(frozen=True)
class RegisteredNoise:
    """One registry entry: factory, sweep axis, and CLI metadata."""

    name: str
    factory: Callable[..., NoiseModel]
    #: Keyword a degradation sweep binds its per-cell value to, or ``None``
    #: when the model has no natural single sweep axis.
    axis: "str | None" = None
    description: str = ""

    def signature(self) -> str:
        """The spec signature, e.g. ``tainted(level, p=0.1, ...)``."""
        parts = []
        for param in inspect.signature(self.factory).parameters.values():
            if param.default is inspect.Parameter.empty:
                parts.append(param.name)
            else:
                parts.append(f"{param.name}={param.default!r}")
        return f"{self.name}({', '.join(parts)})"


def register_noise(
    name: str,
    factory: "Callable[..., NoiseModel] | None" = None,
    *,
    axis: "str | None" = None,
    description: str = "",
    replace: bool = False,
):
    """Register a noise factory under ``name`` (direct call or decorator)."""

    def _register(fn: Callable[..., NoiseModel]) -> Callable[..., NoiseModel]:
        if name in _REGISTRY and not replace:
            raise ValueError(f"noise model {name!r} is already registered")
        if axis is not None and axis not in inspect.signature(fn).parameters:
            raise ValueError(f"sweep axis {axis!r} is not a keyword of noise model {name!r}")
        _REGISTRY[name] = RegisteredNoise(
            name=name, factory=fn, axis=axis, description=description
        )
        return fn

    if factory is not None:
        return _register(factory)
    return _register


def available_noise_models() -> "dict[str, RegisteredNoise]":
    """All registered noise models, by name, in sorted order."""
    return {name: _REGISTRY[name] for name in sorted(_REGISTRY)}


def parse_noise_spec(spec: str) -> "tuple[str, dict[str, object]]":
    """Split ``"name(key=value, ...)"`` into name and keyword dict.

    Nested calls (``inner=gamma(...)``) are kept as spec strings in the
    returned dict; :func:`create_noise` resolves them recursively.
    """
    if not isinstance(spec, str):
        raise TypeError(f"noise spec must be a string, got {type(spec).__name__}")
    match = _SPEC_RE.match(spec)
    if not match:
        raise ValueError(
            f"malformed noise spec {spec!r}: expected 'name' or 'name(key=value, ...)'"
        )
    name, argstr = match.groups()
    kwargs: dict[str, object] = {}
    if argstr and argstr.strip():
        try:
            call = ast.parse(f"_spec({argstr})", mode="eval").body
        except SyntaxError as exc:
            raise ValueError(f"malformed noise spec {spec!r}: {exc.msg}") from None
        if call.args or any(kw.arg is None for kw in call.keywords):
            raise ValueError(
                f"noise spec {spec!r} takes keyword arguments only (key=value)"
            )
        for kw in call.keywords:
            kwargs[kw.arg] = _noise_value(kw.value, spec)
    return name, kwargs


class _NestedSpec(str):
    """Marker: a keyword value that is itself a noise spec string."""


def _noise_value(node: ast.expr, spec: str) -> object:
    if isinstance(node, ast.Name):  # bare word: mode=value, slowdown_only=true
        return _BARE_WORDS.get(node.id.lower(), node.id)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return _NestedSpec(ast.unparse(node))  # nested spec: inner=gamma(...)
    try:
        return ast.literal_eval(node)
    except (ValueError, SyntaxError):
        raise ValueError(
            f"unsupported value {ast.unparse(node)!r} in noise spec {spec!r}: "
            "use Python literals, bare words, or nested noise specs"
        ) from None


def validate_noise_spec(
    spec: str, **overrides
) -> "tuple[RegisteredNoise, dict[str, object]]":
    """Parse and resolve a spec *without* building the model.

    The full validation :func:`create_noise` applies -- grammar, registered
    name, keyword names against the factory signature. Nested specs are
    validated recursively but left as strings.
    """
    name, kwargs = parse_noise_spec(spec)
    entry = _REGISTRY.get(name)
    if entry is None:
        raise ValueError(
            f"unknown noise model {name!r}: registered models are "
            f"{', '.join(sorted(_REGISTRY))}"
        )
    kwargs.update(overrides)
    parameters = inspect.signature(entry.factory).parameters
    unknown = sorted(set(kwargs) - set(parameters))
    if unknown:
        raise ValueError(
            f"unknown keyword(s) {', '.join(unknown)} for noise model {name!r}: "
            f"accepted keywords are {', '.join(parameters) or '(none)'}"
        )
    for value in kwargs.values():
        if isinstance(value, _NestedSpec):
            validate_noise_spec(str(value))
    return entry, kwargs


def create_noise(spec: "str | NoiseModel", **overrides) -> NoiseModel:
    """Build a noise model from a spec string, e.g. ``"tainted(p=0.1)"``.

    Already-built :class:`NoiseModel` instances pass through unchanged, so
    drivers can accept either form. ``overrides`` merge over the spec's
    keywords (the escape hatch for sweep-axis binding).
    """
    if isinstance(spec, NoiseModel):
        return spec
    return _build(*validate_noise_spec(spec, **overrides))


def _build(entry: RegisteredNoise, kwargs: "dict[str, object]") -> NoiseModel:
    """The model of a validated spec, nested specs built first."""
    resolved = {
        key: create_noise(str(value)) if isinstance(value, _NestedSpec) else value
        for key, value in kwargs.items()
    }
    model = entry.factory(**resolved)
    if not isinstance(model, NoiseModel):
        raise TypeError(
            f"noise factory {entry.name!r} returned {type(model).__name__}, "
            "expected a NoiseModel"
        )
    return model


def noise_axis(spec: str) -> str:
    """The sweep-axis keyword of ``spec``'s registered model (or raise)."""
    return _sweep_axis(validate_noise_spec(spec)[0])


def _sweep_axis(entry: RegisteredNoise) -> str:
    if entry.axis is None:
        raise ValueError(
            f"noise model {entry.name!r} has no sweep axis; give one of "
            f"{', '.join(n for n, e in sorted(_REGISTRY.items()) if e.axis)}"
        )
    return entry.axis


def noise_for_level(spec: str, value: float) -> NoiseModel:
    """Bind a sweep-cell value to ``spec``'s axis keyword and build it.

    ``noise_for_level("uniform", 0.2)`` is ``UniformNoise(level=0.2)`` --
    the historical sweep behaviour -- while
    ``noise_for_level("tainted(level=0.05)", 0.2)`` is a contamination
    sweep cell with ``p=0.2``. The axis keyword always wins over a value
    in the spec string. The spec is validated once; the axis needs no
    check of its own, since registration refuses an axis that is not a
    keyword of the factory.
    """
    entry, kwargs = validate_noise_spec(spec)
    kwargs[_sweep_axis(entry)] = float(value)
    return _build(entry, kwargs)


# ------------------------------------------------------------------ builtins
def _register_builtin(name, factory, axis, description) -> None:
    register_noise(name, factory, axis=axis, description=description)
    # Class-name alias so repr(model) is itself a valid spec.
    cls_name = factory.__name__
    if cls_name not in _REGISTRY:
        register_noise(cls_name, factory, axis=axis, description=description)


_register_builtin("clean", NoNoise, None, "identity: calm, noise-free measurements")
_register_builtin(
    "uniform", UniformNoise, "level", "the paper's multiplicative U(-n/2, +n/2)"
)
_register_builtin(
    "gaussian", GaussianNoise, "level", "multiplicative Gaussian, sigma = level/4"
)
_register_builtin(
    "uniform_range",
    UniformLevelRangeNoise,
    "hi",
    "uniform noise with a per-call level drawn from [lo, hi]",
)
_register_builtin(
    "gamma",
    GammaLevelNoise,
    "scale",
    "uniform noise with a clipped-Gamma per-point level (Kripke profile)",
)
_register_builtin(
    "spike",
    LognormalSpikeNoise,
    "spike_probability",
    "uniform base plus rare lognormal slowdown spikes (FASTEST profile)",
)
_register_builtin(
    "systematic",
    SystematicErrorNoise,
    "scale",
    "wrap another model with a per-point systematic lognormal factor",
)
_register_builtin(
    "tainted",
    TaintedRepetitionNoise,
    "p",
    "Copik-style contamination: each repetition tainted with probability p",
)
_register_builtin(
    "heteroscedastic",
    HeteroscedasticNoise,
    "hi",
    "per-element level as a function of the true value or element index",
)
_register_builtin(
    "drift",
    DriftNoise,
    "drift",
    "uniform base plus a slow multiplicative drift across repetitions",
)
