"""Benchmark workloads: each an assembly kernel + Python reference."""

import functools

from .base import Workload, crc16_update  # noqa: F401
from .blockchain import blockchain_kernel  # noqa: F401
from .coremark import coremark_suite  # noqa: F401
from .dhrystone import dhrystone  # noqa: F401
from .eembc import eembc_suite  # noqa: F401
from .nbench import nbench_suite  # noqa: F401
from .specint import specint_workload  # noqa: F401
from .stream import stream_kernel, stream_suite  # noqa: F401
from .stringops import strlen_base, strlen_xt  # noqa: F401
from .vector import (  # noqa: F401
    scalar_mac16,
    vec_axpy_f32,
    vec_axpy_f64,
    vec_fp16_axpy,
    vec_gather,
    vec_mac16,
    vec_memcpy,
    vec_stencil32,
    vec_strcmp,
    vector_suite,
)


def all_workloads() -> list[Workload]:
    """Every verified workload in the repository."""
    return (coremark_suite() + eembc_suite() + nbench_suite()
            + stream_suite(elems=2048) + [specint_workload(
                chase_nodes=4096, scan_elems=8192, chase_steps=4000,
                scan_passes=1, hash_ops=2000)]
            + vector_suite()
            + [blockchain_kernel(xt=False, blocks=4),
               blockchain_kernel(xt=True, blocks=4),
               strlen_base(), strlen_xt(), dhrystone()])


@functools.cache
def _by_name() -> dict[str, Workload]:
    return {workload.name: workload for workload in all_workloads()}


def get_workload(name: str) -> Workload:
    """The bundled workload called *name* (one shared instance, from an
    index built on first use); LookupError names the known ones."""
    try:
        return _by_name()[name]
    except KeyError:
        raise LookupError(
            f"unknown workload {name!r} (known: "
            f"{', '.join(sorted(_by_name()))})") from None
