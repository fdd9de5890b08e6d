"""Per-kernel outcomes of the batched modeling stages.

A batch entry point (``model_kernels``, ``generate_many``) returns one
outcome per kernel: its result, or the exception modeling that kernel
raised. One bad kernel therefore fails alone, and a one-kernel entry point
(``model_kernel``, ``generate``) is the batch path on a one-element batch
that :func:`unwrap` s its outcome, raising what that kernel raised.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence, TypeVar, Union

T = TypeVar("T")

#: A kernel's result, or the exception its modeling raised.
Outcome = Union[T, Exception]


class GenerateJob(NamedTuple):
    """One kernel's input to the generation stage."""

    kernel: object
    n_params: int
    points: object
    values: object
    rng: object = None
    network: object = None


def attempt(fn: "Callable[..., T]", *args, **kwargs) -> "Outcome[T]":
    """``fn(*args, **kwargs)``, or the exception it raised."""
    try:
        return fn(*args, **kwargs)
    # repro-lint: disable-next-line=EXC001 -- not swallowed: the exception is
    # the kernel's outcome, and unwrap() raises it for that kernel.
    except Exception as exc:
        return exc


def failed(outcome: object) -> bool:
    return isinstance(outcome, Exception)


def unwrap(outcome: "Outcome[T]") -> T:
    """The result, or raise the kernel's exception."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def split_seconds(seconds: float, weights: "Sequence[float]") -> "list[float]":
    """``seconds`` shared out in proportion to ``weights`` (evenly when all
    are zero); a sole kernel gets exactly ``seconds``."""
    if len(weights) == 1:
        return [seconds]
    total = sum(weights)
    if total <= 0:
        weights, total = [1.0] * len(weights), float(len(weights))
    return [seconds * (weight / total) for weight in weights]
