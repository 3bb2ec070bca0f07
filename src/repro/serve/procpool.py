"""``proc_workers``: a setting whose only accepted value is ``1``.

Serving predicts in-process only: the thread-sharded
:class:`~repro.serve.engine.InferenceEngine` path, bit-identical to a
sequential ``predict_one``.  The one value ``proc_workers`` can still
take is ``1`` (``None`` and ``0`` mean the same).
"""

from __future__ import annotations

from ..exceptions import InvalidParameterError

__all__ = ["default_proc_workers"]


# Kept because the end-to-end benchmark (perfbench/) records this value.
def default_proc_workers(proc_workers: int | None = None) -> int:
    """Validate a ``proc_workers`` request; the only answer is ``1``.

    >>> default_proc_workers()
    1
    >>> default_proc_workers(2)
    Traceback (most recent call last):
    ...
    repro.exceptions.InvalidParameterError: proc_workers must be 1 (predict runs in-process only), got 2
    """
    if proc_workers is None or (
        type(proc_workers) is int and proc_workers in (0, 1)
    ):
        return 1
    raise InvalidParameterError(
        f"proc_workers must be 1 (predict runs in-process only), got {proc_workers!r}"
    )
