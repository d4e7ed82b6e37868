"""The re-encryption feasibility model (paper Section 3.2).

The paper's argument that naive re-encryption cannot respond to a broken
cipher rests on a back-of-envelope that this module makes precise and
repeatable:

    "A conservative approximation for the time to just read all the data in
    an archive can be obtained by dividing the size of the archive by its
    aggregate read throughput."

with three multiplicative corrections the paper then applies:

- writing the re-encrypted data back "will at least double the
  re-encryption duration" (write-verify factor, default 2x);
- reserving capacity for ongoing ingest/reads "can easily double" it again
  (reserve factor, default 2x);
- real target archives are "in the many exabyte and even zettabyte sizes",
  so the final step extrapolates.

The four archives the paper cites are provided as :data:`PAPER_ARCHIVES`
with the paper's own capacity/throughput numbers.  Note on units: the
paper's months figures are consistent with decimal (TB = 10^12) capacity
over quoted throughputs for ECMWF/CERN/Pergamum and sit between the decimal
and binary interpretations for Oak Ridge; :func:`reencryption_estimate`
exposes the convention so EXPERIMENTS.md can report both.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ParameterError

#: Days per month used when converting; the astronomical mean.
DAYS_PER_MONTH = 30.44

TB = 1.0
PB = 1_000.0  # TB
EB = 1_000_000.0  # TB
ZB = 1_000_000_000.0  # TB


@dataclass(frozen=True)
class ArchiveProfile:
    """A real archive's published capacity and aggregate read throughput."""

    name: str
    capacity_tb: float
    read_throughput_tb_per_day: float
    medium: str = "tape"
    source: str = ""

    def __post_init__(self) -> None:
        if self.capacity_tb <= 0 or self.read_throughput_tb_per_day <= 0:
            raise ParameterError("capacity and throughput must be positive")

    @property
    def read_time_days(self) -> float:
        """Days to stream the whole archive once at full aggregate rate."""
        return self.capacity_tb / self.read_throughput_tb_per_day

    @property
    def read_time_months(self) -> float:
        return self.read_time_days / DAYS_PER_MONTH


#: The systems quoted in Section 3.2, with the paper's numbers.
PAPER_ARCHIVES: tuple[ArchiveProfile, ...] = (
    ArchiveProfile(
        name="Oak Ridge HPSS",
        capacity_tb=80 * PB,
        read_throughput_tb_per_day=400.0,
        medium="tape",
        source="Sim & Vazhkudai, MASCOTS '19 (paper: 6.75 months)",
    ),
    ArchiveProfile(
        name="ECMWF MARS",
        capacity_tb=37.9 * PB,
        read_throughput_tb_per_day=120.0,
        medium="tape",
        source="Grawinkel et al., FAST '15 (paper: 10.35 months)",
    ),
    ArchiveProfile(
        name="CERN EOS",
        capacity_tb=230 * PB,
        read_throughput_tb_per_day=909.0,
        medium="tape",
        source="Purandare et al., CHEOPS '22 (paper: 8.3 months)",
    ),
    ArchiveProfile(
        name="Pergamum (hypothetical)",
        capacity_tb=10 * PB,
        # 5 GB/s aggregate = 5 * 86400 GB/day = 432 TB/day.
        read_throughput_tb_per_day=432.0,
        medium="disk",
        source="Storer et al., FAST '08 (paper: 0.76 months)",
    ),
)


def op_deadline_s(
    payload_bytes: int,
    profile: ArchiveProfile | None = None,
    slack: float = 4.0,
    floor_s: float = 0.05,
) -> float:
    """Price a per-operation deadline from an archive's latency figures.

    The same arithmetic the Section 3.2 model uses for whole-archive reads,
    applied to one object: time to move *payload_bytes* at the archive's
    aggregate read rate, times a *slack* factor for queueing and seeks, with
    a *floor_s* floor so tiny objects still get a realistic media-latency
    budget.  The default profile is Pergamum (disk), the paper's
    low-latency reference point; tape profiles price much looser deadlines.
    """
    if payload_bytes < 0:
        raise ParameterError("payload_bytes must be >= 0")
    if slack < 1 or floor_s <= 0:
        raise ParameterError("need slack >= 1 and floor_s > 0")
    profile = profile or PAPER_ARCHIVES[3]  # Pergamum: the disk profile
    read_s = (payload_bytes / 1e12) / profile.read_throughput_tb_per_day * 86_400.0
    return max(floor_s, slack * read_s)


#: Paper convention ("writing ... tends to be slower than reading"): a
#: store moves the bytes at half the archive's aggregate read rate.
WRITE_FACTOR = 2.0


def op_service_time_s(
    payload_bytes: int,
    op: str = "retrieve",
    profile: ArchiveProfile | None = None,
    overhead_s: float = 1e-3,
    write_factor: float = WRITE_FACTOR,
) -> float:
    """Price the service time of one request on an archive's data path.

    The per-request analogue of the Section 3.2 whole-archive arithmetic:
    byte-transfer time at the profile's aggregate read rate (writes slowed
    by *write_factor*, the paper's read-vs-write asymmetry), plus a fixed
    *overhead_s* for request handling, metadata, and media latency.  The
    default profile is Pergamum (disk), the paper's low-latency reference.
    """
    if payload_bytes < 0:
        raise ParameterError("payload_bytes must be >= 0")
    if op not in ("store", "retrieve"):
        raise ParameterError(f"unknown op {op!r}")
    if overhead_s < 0 or write_factor < 1:
        raise ParameterError("need overhead_s >= 0 and write_factor >= 1")
    profile = profile or PAPER_ARCHIVES[3]  # Pergamum: the disk profile
    transfer_s = (payload_bytes / 1e12) / profile.read_throughput_tb_per_day * 86_400.0
    if op == "store":
        transfer_s *= write_factor
    return overhead_s + transfer_s


def capacity_rps(
    profile: ArchiveProfile,
    mean_payload_bytes: float,
    store_fraction: float = 0.0,
    write_factor: float = WRITE_FACTOR,
) -> float:
    """Sustainable requests/second of *profile* for a given request mix.

    This is how Section 3.2 sizes real archives (capacity over aggregate
    throughput), inverted into a request rate: aggregate bytes/second
    divided by the mean bytes one request moves (stores weighted by the
    read-vs-write asymmetry).  The service benchmark reports its measured
    saturation throughput against this model for each paper archive.
    """
    if mean_payload_bytes <= 0:
        raise ParameterError("mean_payload_bytes must be > 0")
    if not 0 <= store_fraction <= 1:
        raise ParameterError("store_fraction must be in [0, 1]")
    bytes_per_s = profile.read_throughput_tb_per_day * 1e12 / 86_400.0
    weighted_bytes = mean_payload_bytes * (
        1.0 + store_fraction * (write_factor - 1.0)
    )
    return bytes_per_s / weighted_bytes


@dataclass(frozen=True)
class ReencryptionEstimate:
    """Breakdown of a whole-archive re-encryption duration."""

    archive: ArchiveProfile
    read_months: float
    write_factor: float
    reserve_factor: float

    @property
    def total_months(self) -> float:
        return self.read_months * self.write_factor * self.reserve_factor

    @property
    def total_years(self) -> float:
        return self.total_months / 12.0


def reencryption_estimate(
    archive: ArchiveProfile,
    write_factor: float = 2.0,
    reserve_factor: float = 2.0,
) -> ReencryptionEstimate:
    """Estimate a full re-encryption campaign for *archive*.

    ``write_factor`` models read+process+write-back with write verification
    ("writing ... tends to be slower than reading ... this factor will at
    least double the re-encryption duration").  ``reserve_factor`` models
    capacity withheld for ongoing ingest and reads ("this additional factor
    can easily double the re-encryption duration").
    """
    if write_factor < 1 or reserve_factor < 1:
        raise ParameterError("factors must be >= 1")
    return ReencryptionEstimate(
        archive=archive,
        read_months=archive.read_time_months,
        write_factor=write_factor,
        reserve_factor=reserve_factor,
    )


def scaled_archive(base: ArchiveProfile, capacity_tb: float, name: str | None = None) -> ArchiveProfile:
    """An archive with *capacity_tb* but *base*'s throughput density.

    Throughput is scaled proportionally to capacity (more data, more
    drives), which is the *generous* assumption: if throughput does not
    scale, the durations below are underestimates.
    """
    scale = capacity_tb / base.capacity_tb
    return ArchiveProfile(
        name=name or f"{base.name} @ {capacity_tb:g} TB",
        capacity_tb=capacity_tb,
        read_throughput_tb_per_day=base.read_throughput_tb_per_day * scale,
        medium=base.medium,
        source=f"scaled from {base.name}",
    )


def exabyte_extrapolation(
    base: ArchiveProfile,
    capacity_tb: float,
    throughput_scaling: float = 1.0,
    write_factor: float = 2.0,
    reserve_factor: float = 2.0,
) -> ReencryptionEstimate:
    """The paper's closing step: at exabyte/zettabyte scale with sub-linear
    throughput scaling, "the practical time for re-encrypting an entire
    archive could turn into many years".

    ``throughput_scaling`` in (0, 1]: 1.0 means throughput grows with
    capacity (duration unchanged); 0.5 means throughput grows with the
    square root of the capacity ratio, and so on.
    """
    if not 0 < throughput_scaling <= 1:
        raise ParameterError("throughput_scaling must be in (0, 1]")
    ratio = capacity_tb / base.capacity_tb
    throughput = base.read_throughput_tb_per_day * ratio**throughput_scaling
    profile = ArchiveProfile(
        name=f"{base.name} extrapolated to {capacity_tb:g} TB",
        capacity_tb=capacity_tb,
        read_throughput_tb_per_day=throughput,
        medium=base.medium,
        source=f"extrapolated from {base.name}",
    )
    return reencryption_estimate(profile, write_factor, reserve_factor)
