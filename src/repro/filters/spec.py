"""One value for a filter's parameters, shared by every front door.

The paper's filter is fixed by a handful of numbers: ``N = 2^n`` bits per
vector, ``k`` vectors, ``m`` hashes, ``Δt``, the field mode, and ``P_d``
— static, or Equation 1's ramp between ``L`` and ``H`` (section 4.3
sizes them).  A :class:`FilterSpec` holds them once.  ``repro filter``,
``repro serve``, ``repro fleet serve`` (its daemons and its offline
reference alike) and ``repro swarm`` build their filters through
:meth:`FilterSpec.build`; :func:`add_filter_flags` declares the flags
:meth:`FilterSpec.from_args` reads, and :meth:`FilterSpec.argv` renders
them back for a ``repro serve`` subprocess.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.bitmap_filter import BitmapFilterConfig, FieldMode
from repro.core.dropper import StaticDropPolicy
from repro.filters.base import AcceptAllFilter, PacketFilter
from repro.filters.bitmap import BitmapPacketFilter
from repro.filters.chain import FilterChain
from repro.filters.counting import CountingBitmapFilter
from repro.filters.naive import NaiveTimerFilter
from repro.filters.policy import DropController
from repro.filters.spi import SPIFilter

KINDS = ("bitmap", "counting", "spi", "naive", "chain", "none")


def auto_red_thresholds(uplink_mbps: float) -> Tuple[float, float]:
    """``--auto-red``'s Equation 1 thresholds: ``L`` and ``H`` at 35% and
    70% of the measured uplink."""
    return uplink_mbps * 0.35, uplink_mbps * 0.70


@dataclass(frozen=True)
class FilterSpec:
    """A filter kind and its parameters.

    ``pd`` is a static ``P_d``; ``low_mbps`` and ``high_mbps``, given
    both or neither, replace it with Equation 1's RED ramp.
    ``use_blocklist`` is the router's blocked-connection store, not part
    of the filter.
    """

    kind: str = "bitmap"
    size_bits: int = 20
    vectors: int = 4
    hashes: int = 3
    rotate_interval: float = 5.0
    hole_punching: bool = False
    pd: float = 1.0
    low_mbps: Optional[float] = None
    high_mbps: Optional[float] = None
    use_blocklist: bool = True

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown filter kind {self.kind!r} (one of {KINDS})")
        if (self.low_mbps is None) != (self.high_mbps is None):
            raise ValueError(
                f"a RED band needs both low_mbps and high_mbps: "
                f"low_mbps={self.low_mbps}, high_mbps={self.high_mbps}"
            )

    @property
    def red(self) -> bool:
        """Whether Equation 1 sets ``P_d`` (both thresholds given)."""
        return self.low_mbps is not None and self.high_mbps is not None

    def build(self) -> Tuple[PacketFilter, Optional[DropController]]:
        """A fresh filter, and the drop controller a retune loop steers
        (``None`` for ``none``, which drops nothing)."""
        if self.kind == "none":
            return AcceptAllFilter(), None
        if self.red:
            controller = DropController.red_mbps(
                low_mbps=self.low_mbps, high_mbps=self.high_mbps
            )
        else:
            controller = DropController(StaticDropPolicy(self.pd))
        config = BitmapFilterConfig(
            size=2 ** self.size_bits,
            vectors=self.vectors,
            hashes=self.hashes,
            rotate_interval=self.rotate_interval,
            field_mode=(FieldMode.HOLE_PUNCHING if self.hole_punching
                        else FieldMode.STRICT),
        )
        if self.kind == "bitmap":
            return BitmapPacketFilter(config, controller), controller
        if self.kind == "counting":
            return CountingBitmapFilter(config, controller), controller
        if self.kind == "spi":
            return SPIFilter(drop_controller=controller), controller
        if self.kind == "naive":
            return NaiveTimerFilter(expiry=config.expiry_time,
                                    field_mode=config.field_mode,
                                    drop_controller=controller), controller
        # chain: SPI in front of the bitmap; a retune steers the bitmap's P_d.
        spi = SPIFilter(drop_controller=DropController.never_drop())
        return FilterChain([spi, BitmapPacketFilter(config, controller)]), controller

    @classmethod
    def from_args(cls, args, uplink_mbps: Optional[float] = None) -> "FilterSpec":
        """The spec a command's parsed :func:`add_filter_flags` describe;
        a flag the command does not declare keeps the spec's default.
        ``--auto-red`` derives ``L`` and ``H`` from ``uplink_mbps``."""
        low = getattr(args, "low_mbps", None)
        high = getattr(args, "high_mbps", None)
        if getattr(args, "auto_red", False):
            low, high = auto_red_thresholds(uplink_mbps)
        return cls(
            kind=getattr(args, "filter_name", cls.kind),
            size_bits=args.size_bits,
            vectors=args.vectors,
            hashes=args.hashes,
            rotate_interval=args.rotate,
            hole_punching=args.hole_punching,
            pd=getattr(args, "pd", cls.pd),
            low_mbps=low,
            high_mbps=high,
            use_blocklist=not getattr(args, "no_blocklist", False),
        )

    def argv(self) -> List[str]:
        """The ``repro serve`` flags that rebuild this spec.

        ``serve`` builds the bitmap filter with ``P_d = 1`` or RED only,
        so any other spec raises :class:`ValueError`: a fleet's daemons
        can never run a filter other than its offline reference's.
        """
        if self.kind != "bitmap" or self.pd != 1.0:
            raise ValueError(
                f"repro serve builds only the bitmap filter with P_d = 1 "
                f"or RED: {self}"
            )
        argv = [
            "--size-bits", str(self.size_bits),
            "--vectors", str(self.vectors),
            "--hashes", str(self.hashes),
            "--rotate", str(self.rotate_interval),
        ]
        if self.hole_punching:
            argv.append("--hole-punching")
        if self.low_mbps is not None:
            argv += ["--low-mbps", str(self.low_mbps)]
        if self.high_mbps is not None:
            argv += ["--high-mbps", str(self.high_mbps)]
        if not self.use_blocklist:
            argv.append("--no-blocklist")
        return argv

    def describe(self) -> str:
        """The drop-policy note a command prints beside the filter."""
        if self.kind == "none":
            return "no filtering"
        if self.red:
            return f"RED L={self.low_mbps:.2f} H={self.high_mbps:.2f} Mbps"
        note = f"P_d = {self.pd:g}"
        return note + " (drop all stateless inbound)" if self.pd == 1.0 else note


def red_band_error(args) -> Optional[str]:
    """Why parsed :func:`add_filter_flags` flags do not give one RED band,
    or None.

    Equation 1 needs both thresholds, and ``--auto-red`` derives both from
    the measured uplink, so a lone ``--low-mbps`` or ``--high-mbps``, or
    either beside ``--auto-red``, would be ignored; the commands refuse
    them as usage errors before reading any trace.
    """
    given = args.low_mbps is not None or args.high_mbps is not None
    if getattr(args, "auto_red", False) and given:
        return ("--auto-red sets --low-mbps and --high-mbps from the "
                "measured uplink: give neither with it")
    if given and (args.low_mbps is None or args.high_mbps is None):
        return "Equation 1 needs both --low-mbps and --high-mbps, or neither"
    return None


def add_filter_flags(parser, size_bits: int, kinds: Sequence[str] = (),
                     static_pd: bool = False, auto_red: bool = False) -> None:
    """Declare the flags :meth:`FilterSpec.from_args` reads on ``parser``.

    ``size_bits`` is the command's default ``n``.  ``kinds`` offers
    ``--filter`` (without it the command runs the bitmap filter).
    ``static_pd`` declares one static ``--pd`` in place of Equation 1's
    ``--low-mbps``/``--high-mbps`` and ``--no-blocklist``;
    ``auto_red`` adds ``--auto-red``.
    """
    if kinds:
        parser.add_argument("--filter", dest="filter_name", default=FilterSpec.kind,
                            choices=tuple(kinds))
    parser.add_argument("--size-bits", type=int, default=size_bits, help="n of N=2^n")
    parser.add_argument("--vectors", type=int, default=FilterSpec.vectors,
                        help="k bit vectors")
    parser.add_argument("--hashes", type=int, default=FilterSpec.hashes,
                        help="m hash functions")
    parser.add_argument("--rotate", type=float, default=FilterSpec.rotate_interval,
                        help="Δt seconds")
    parser.add_argument("--hole-punching", action="store_true",
                        help="ignore the remote port in hashes (NAT traversal "
                             "support); SPI keys exact flows and ignores it")
    if static_pd:
        parser.add_argument("--pd", type=float, default=FilterSpec.pd,
                            help="static inbound drop probability P_d")
        return
    parser.add_argument("--low-mbps", type=float, default=None, help="Equation 1 L")
    parser.add_argument("--high-mbps", type=float, default=None, help="Equation 1 H")
    if auto_red:
        parser.add_argument("--auto-red", action="store_true",
                            help="set L/H to 35%%/70%% of the measured uplink")
    parser.add_argument("--no-blocklist", action="store_true",
                        help="disable blocked-connection persistence")
