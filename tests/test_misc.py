"""Small-surface tests: error hierarchy, result tables, group
membership, endpoint queue mechanics."""

import pytest

from repro.errors import (
    ConfigurationError,
    InvariantViolation,
    LockConflict,
    NetworkError,
    ReproError,
    SimulationError,
    TransactionAborted,
    UnknownProcedureError,
)
from repro.harness.results import format_table, speedup
from repro.net.endpoint import Node
from repro.net.groupcast import GroupMembership
from repro.net.network import NetConfig, Network
from repro.sim.event_loop import EventLoop


def test_all_errors_derive_from_repro_error():
    for exc in (ConfigurationError, SimulationError, NetworkError,
                UnknownProcedureError, TransactionAborted,
                InvariantViolation):
        assert issubclass(exc, ReproError)
    assert issubclass(LockConflict, TransactionAborted)


def test_transaction_aborted_carries_reason():
    error = TransactionAborted("stock exhausted")
    assert error.reason == "stock exhausted"
    assert "stock exhausted" in str(error)


def test_format_table_alignment():
    table = format_table(["name", "value"],
                         [["alpha", 12345.0], ["b", 0.5]])
    lines = table.splitlines()
    assert lines[0].startswith("name")
    assert "12,345" in table
    assert "0.5" in table


def test_format_table_with_title():
    assert format_table(["a"], [[1]], title="T").splitlines()[0] == "T"


def test_speedup_formats():
    assert speedup(10, 4) == "2.50x"
    assert speedup(1, 3) == "0.33x"


def test_group_membership_api():
    groups = GroupMembership()
    groups.define(0, ["a", "b"])
    groups.define(1, ["b", "c"])
    assert groups.members(0) == ("a", "b")
    assert groups.groups() == (0, 1)
    assert groups.all_members() == ("a", "b", "c")   # deduplicated
    assert 0 in groups and 7 not in groups
    assert len(groups) == 2


def test_group_membership_rejects_empty():
    with pytest.raises(NetworkError):
        GroupMembership().define(0, [])


def test_group_membership_unknown_group():
    with pytest.raises(NetworkError):
        GroupMembership().members(9)


class _Slow(Node):
    msg_service_time = 50e-6

    def __init__(self, address, network):
        super().__init__(address, network)
        self.seen = []

    def handle(self, src, message, packet):
        self.seen.append((message, self.now))


def test_endpoint_inbox_is_fifo_under_load():
    loop = EventLoop()
    net = Network(loop, NetConfig(base_latency=1e-6, jitter=0.0))
    node = _Slow("n", net)
    sender = _Slow("s", net)
    for i in range(10):
        sender.send("n", i)
    loop.run_until_idle()
    assert [m for m, _ in node.seen] == list(range(10))
    # Each message occupied the server for its full service time.
    gaps = [node.seen[i + 1][1] - node.seen[i][1] for i in range(9)]
    assert all(g == pytest.approx(50e-6) for g in gaps)


def test_endpoint_crash_mid_queue_stops_processing():
    loop = EventLoop()
    net = Network(loop, NetConfig(base_latency=1e-6, jitter=0.0))
    node = _Slow("n", net)
    sender = _Slow("s", net)
    for i in range(10):
        sender.send("n", i)
    loop.run(max_events=12)
    node.crash()
    loop.run_until_idle()
    assert len(node.seen) < 10


def test_crashed_node_does_not_send():
    loop = EventLoop()
    net = Network(loop, NetConfig(jitter=0.0))
    a = _Slow("a", net)
    b = _Slow("b", net)
    a.crash()
    a.send("b", "x")
    loop.run_until_idle()
    assert b.seen == []
