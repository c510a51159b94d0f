"""Extension — collateral damage: bitmap filter vs indiscriminate policing.

The paper motivates the bitmap filter by what an ISP would otherwise do:
throttle the whole uplink.  This bench compares, at comparable uplink
reduction, how much *legitimate client-initiated traffic* each mechanism
destroys.  The bitmap filter gates only unsolicited inbound requests, so
responses to client requests sail through; a token bucket or blanket RED
policer cannot tell them apart.

Metric: client-initiated connections (web-style traffic a customer would
complain about losing) refused by each limiter.
"""

from benchmarks.conftest import print_comparison
from repro.core.bitmap_filter import BitmapFilterConfig
from repro.filters.base import AcceptAllFilter
from repro.filters.bitmap import BitmapPacketFilter
from repro.filters.policy import DropController
from repro.filters.ratelimit import TokenBucketFilter
from repro.net.packet import Direction
from repro.sim.closedloop import ClosedLoopSimulator
from repro.workload.apps import Initiator


def test_ext_collateral_damage(benchmark, standard_specs):
    client_specs = [s for s in standard_specs if s.initiator is Initiator.CLIENT]

    unfiltered = ClosedLoopSimulator(AcceptAllFilter()).run(standard_specs)
    offered_up = unfiltered.passed.mean_mbps(Direction.OUTBOUND)

    def run_all():
        bitmap = ClosedLoopSimulator(
            BitmapPacketFilter(
                BitmapFilterConfig(size=2 ** 20, vectors=4, hashes=3, rotate_interval=5.0),
                drop_controller=DropController.red_mbps(
                    low_mbps=offered_up * 0.25, high_mbps=offered_up * 0.5
                ),
            )
        ).run(standard_specs)
        bucket = ClosedLoopSimulator(
            TokenBucketFilter(rate_mbps=offered_up * 0.5)
        ).run(standard_specs)
        return bitmap, bucket

    bitmap, bucket = benchmark.pedantic(run_all, rounds=1, iterations=1)

    # Collateral: client-initiated connections refused by each limiter.
    bitmap_refused_client = bitmap.refused_by_initiator.get("client", 0)
    bucket_refused_client = bucket.refused_by_initiator.get("client", 0)

    print_comparison(
        "Extension — collateral damage at ~equal uplink bound",
        [
            ("uplink unfiltered (Mbps)", "-", f"{offered_up:.2f}"),
            ("uplink, bitmap (Mbps)", "bounded", f"{bitmap.passed.mean_mbps(Direction.OUTBOUND):.2f}"),
            ("uplink, token bucket (Mbps)", "bounded", f"{bucket.passed.mean_mbps(Direction.OUTBOUND):.2f}"),
            ("client conns refused, bitmap", "~0 (selective)", bitmap_refused_client),
            ("client conns refused, bucket", "many (blind)", bucket_refused_client),
            ("remote conns refused, bitmap", "many (the point)", bitmap.refused_by_initiator.get("remote", 0)),
            ("client conns in workload", "-", len(client_specs)),
        ],
    )

    # The headline: the bitmap filter refuses essentially no
    # client-initiated connections, the blind policer kills plenty.
    assert bitmap_refused_client <= len(client_specs) * 0.02
    assert bucket_refused_client > bitmap_refused_client
    assert bitmap.refused_by_initiator.get("remote", 0) > 0
    # Both actually bound the uplink.
    assert bitmap.passed.mean_mbps(Direction.OUTBOUND) < offered_up
    assert bucket.passed.mean_mbps(Direction.OUTBOUND) < offered_up
