"""Fleet profiling: aggregate DCG profiles across VM runs.

The paper makes high-accuracy DCG collection cheap enough to run
*everywhere*; this package closes the production-PGO loop that cheapness
enables.  Many concurrent VM runs publish DCG deltas (non-blocking, via
:class:`~repro.fleet.client.FleetPublisher`) to one aggregation service
(:class:`~repro.fleet.service.FleetService`, ``repro-mini serve``) that
merges them per program fingerprint with order-independent weighted
decay, logging every accepted delta before its ack and compacting the
log into snapshots.  A later run warm-starts its
adaptive optimizer from the aggregate (``repro-mini run --publish ADDR
--warm-start``), so short-running programs — the paper's motivating
failure mode for sampled profiles — reach full optimization without
waiting to re-learn what the fleet already knows.

See docs/FLEET.md for the protocol, repository layout, warm-start
semantics, and failure modes.
"""

from repro.fleet.client import FleetPublisher, fetch_snapshot, parse_address
from repro.fleet.merge import AggregateProfile, MergeError, MergePolicy
from repro.fleet.protocol import (
    MAX_MESSAGE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    encode_message,
    decode_payload,
)
from repro.fleet.repository import ProfileRepository, RepositoryError
from repro.fleet.service import FleetService, run_service

__all__ = [
    "AggregateProfile",
    "FleetPublisher",
    "FleetService",
    "MAX_MESSAGE_BYTES",
    "MergeError",
    "MergePolicy",
    "PROTOCOL_VERSION",
    "ProfileRepository",
    "ProtocolError",
    "RepositoryError",
    "decode_payload",
    "encode_message",
    "fetch_snapshot",
    "parse_address",
    "run_service",
]
