"""The all-to-all and all-gather collectives on the simulated MPI.

Only Algorithm 3 (:mod:`tests.oracles.distributed`) exchanges data
this way; the product's rank programs use ``SimComm.exchange`` and
``SimComm.allreduce``.  Each function is the collective as a
``SimComm`` method had it: fault gate, message faults, and the traffic
counters and ``comm.*`` metrics.
"""

from __future__ import annotations

import numpy as np

from repro.obs import add as obs_add
from repro.parallel.simmpi import SimComm, _nbytes


def alltoallv(comm: SimComm, send: list[list]) -> list[list]:
    """``send[src][dst]`` → returns ``recv[dst][src]``.

    Entries may be numpy arrays or None (no message).  Buffers are
    validated before any counter is touched: a reported negative
    payload size or the *same* array object aliased into several
    slots would corrupt the traffic counters (and hand mutable
    aliases to several receivers), so both are rejected with a
    clear error instead.
    """
    if len(send) != comm.size or any(len(row) != comm.size for row in send):
        raise ValueError("send must be a size x size matrix of buffers")
    seen: dict[int, tuple[int, int]] = {}
    for src in range(comm.size):
        for dst in range(comm.size):
            buf = send[src][dst]
            if buf is None or (isinstance(buf, np.ndarray) and buf.size == 0):
                continue
            nb = _nbytes(buf)
            if nb < 0:
                raise ValueError(
                    f"alltoallv: buffer ({src}->{dst}) reports negative "
                    f"size {nb}"
                )
            if isinstance(buf, np.ndarray):
                prev = seen.setdefault(id(buf), (src, dst))
                if prev != (src, dst):
                    raise ValueError(
                        f"alltoallv: buffer ({src}->{dst}) aliases the "
                        f"({prev[0]}->{prev[1]}) buffer — send distinct "
                        "arrays per destination"
                    )
    idx = comm._fault_gate("alltoallv")
    filtering = comm._has_message_faults(idx)
    comm._count_collective()
    recv: list[list] = [[None] * comm.size for _ in range(comm.size)]
    for src in range(comm.size):
        for dst in range(comm.size):
            buf = send[src][dst]
            if buf is None or (isinstance(buf, np.ndarray) and buf.size == 0):
                continue
            if filtering:
                deliver, buf = comm._message_filter(
                    idx, "alltoallv", src, dst, buf
                )
                if not deliver:
                    continue
            if src != dst:
                comm._count_p2p(src, dst, _nbytes(buf))
            recv[dst][src] = buf
    return recv


def allgather(comm: SimComm, values: list) -> list[list]:
    """Each rank contributes one value; all ranks get the list."""
    if len(values) != comm.size:
        raise ValueError("one value per rank required")
    comm._fault_gate("allgather")
    comm._count_collective()
    sizes = [_nbytes(v) for v in values]
    total = sum(sizes)
    for r in range(comm.size):
        nb = sizes[r]
        comm.counters.bytes_sent[r] += nb * (comm.size - 1)
        comm.counters.messages_sent[r] += comm.size - 1
        comm.counters.bytes_recv[r] += total - nb
        obs_add("comm.bytes_sent", nb * (comm.size - 1), rank=r)
        obs_add("comm.bytes_recv", total - nb, rank=r)
        obs_add("comm.messages_sent", comm.size - 1, rank=r)
    return [list(values) for _ in range(comm.size)]
